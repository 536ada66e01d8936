"""The tools that measure the package: the code-line counter that gives
its size, and the benchmark's tracer that times its layers."""
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
COUNTER = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))

SOURCE = '''"""Module docstring,
two lines."""
import os  # a comment on a code line

# a comment line


def f(x):
    "one-line docstring"
    "implicit" "concatenation"
    text = """a string
    that spans three
    lines"""
    return (x +
            1)
'''


def test_code_lines_skip_comments_blanks_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the three lines of `text` and the two of `return`
    assert COUNTER["code_lines"](path) == 7
    assert list(COUNTER["sources"]([tmp_path])) == [path]


def test_tracer_reaches_the_series_layer(tmp_path):
    # the benchmark's tracer wraps `series` functions by name, so a change
    # under src/ that moves them breaks it; one traced request, in a fresh
    # process as the benchmark runs it, still prints its pinned bytes and
    # still times each series span
    request = "verify --level quick --format json"
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans), "--"]
    proc = subprocess.run(
        argv + request.split(), cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert hashlib.sha256(proc.stdout).hexdigest() == digests[request]["sha256"]
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    series = {"series.mul", "series.inverse", "series.poly_divide", "series.poly_mul"}
    assert series <= names, series - names
