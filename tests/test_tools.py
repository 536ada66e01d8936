"""The code-line counter that measures the package's size."""
import runpy
from pathlib import Path

COUNTER = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "code_lines.py"))

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
