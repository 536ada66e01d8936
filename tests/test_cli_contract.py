"""Generated argv against the CLI's exit-code contract and its grammar.

For any mix of options, `cli.main` returns 0, 2 or 3, or argparse raises
SystemExit(2); it never raises anything else and, on correct engines,
never returns 1.  Exit 2 or 3 writes one stderr line, `error: ...` or
`resource cap: ...`, and nothing to stdout or --out; exit 0 writes no
stderr.  `cli.read_argv` reads an argv exactly as argparse does, or
leaves it to argparse.
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakless.cli import build_parser, main, read_argv
from peakless.errors import ORACLE_CAP_ENV

small = st.integers(min_value=-3, max_value=30)


def option(flag, values):
    # the flag with a drawn value, or the flag left out
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def switch(flag):
    return st.sampled_from([[], [flag]])


def formats(*choices):
    return option("--format", st.sampled_from(choices))


def joined(parts):
    return [word for part in parts for word in part]


def parts(*strategies):
    return st.tuples(*strategies).map(joined)


ALL = ("text", "csv", "json")
KINDS = st.sampled_from(("count", "avg_height"))
N = small.map(lambda n: ["-n", str(n)])
LENGTHS = st.lists(N, min_size=1, max_size=3).map(joined)  # -n, repeatable
REQUESTS = st.one_of(
    parts(st.just(["count"]), N, formats(*ALL)),
    parts(st.just(["bounded"]), N, option("-l", small), switch("--table"), formats(*ALL)),
    parts(st.just(["dist"]), N, formats(*ALL)),
    parts(
        st.just(["enumerate"]),
        N,
        switch("--peakless"),
        option("-l", small),
        option("--end-level", small),
        # a cap past 16 lifts the listing's budget, whose size grows like 3^n
        option("--oracle-cap", st.integers(min_value=-3, max_value=12)),
        formats("text", "json"),
    ),
    parts(
        st.just(["verify"]),
        option("--level", st.sampled_from(("quick", "full"))),
        formats("text", "json"),
    ),
    parts(
        st.just(["asympt"]), option("--kind", KINDS), LENGTHS, option("--cap", small),
        formats(*ALL),
    ),
    parts(
        st.just(["export", "bounded"]),
        N,
        option("-l", small),
        option("--method", st.sampled_from(("cf", "det", "dp"))),
        formats("csv", "json"),
    ),
    parts(
        st.just(["export", "report"]), option("--kind", KINDS), LENGTHS,
        option("--cap", small), formats("csv", "json"),
    ),
)


@settings(deadline=None, max_examples=80)
@given(
    argv=REQUESTS,
    out=st.sampled_from((None, "writable", "unwritable")),
    cap=st.sampled_from((None, "abc", "-1", "0", "3", "5")),
)
def test_every_request_keeps_the_exit_code_contract(argv, out, cap):
    saved = os.environ.pop(ORACLE_CAP_ENV, None)
    if cap is not None:
        os.environ[ORACLE_CAP_ENV] = cap
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, *(["missing"] if out == "unwritable" else []), "o")
            args = argv + (["--out", target] if out else [])
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(args)
                except SystemExit as exc:  # argparse refused the options
                    assert exc.code == 2
                    return
            written = os.path.exists(target)
    finally:
        os.environ.pop(ORACLE_CAP_ENV, None)
        if saved is not None:
            os.environ[ORACLE_CAP_ENV] = saved
    err = stderr.getvalue()
    assert code in (0, 2, 3), (args, err)
    if code == 0:
        assert err == "" and (out is None or stdout.getvalue() == ""), args
        assert written == (out == "writable"), args
    else:
        prefix = "error: " if code == 2 else "resource cap: "
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
        assert stdout.getvalue() == "" and not written, (args, err)


PARSER = build_parser()  # parse_args leaves the parser as it was

# words that argparse reads in its own way: abbreviated, joined or long flags,
# `--`, help, and values that start with `-` or that only int() takes
SPELLINGS = (
    "--form", "--format=json", "-n5", "--order", "--bound", "--", "-h",
    "-", "-x", "-1.5", "\u0663", "-7", "",
)


@st.composite
def spelt(draw):
    # a generated request with up to three edits: a word of SPELLINGS put in,
    # put for a word or written to by --out, an option and its value
    # repeated, or two words joined
    argv = draw(REQUESTS)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        word = draw(st.sampled_from(SPELLINGS))
        edit = draw(st.sampled_from(("insert", "replace", "out", "repeat", "join")))
        if edit == "insert":
            argv = argv[:i] + [word] + argv[i:]
        elif edit == "replace":
            argv = argv[:i] + [word] + argv[i + 1 :]
        elif edit == "out":
            argv = argv + ["--out", word]
        elif edit == "repeat":
            argv = argv + argv[i : i + 2]
        else:
            joined = draw(st.sampled_from(("=", ""))).join(argv[i : i + 2])
            argv = argv[:i] + [joined] + argv[i + 2 :]
    return argv


def parsed(argv):
    # argparse's namespace for argv, as a dict, or its exit code
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit as exc:
            return exc.code


@settings(deadline=None, max_examples=300)
@given(argv=spelt())
def test_the_reader_reads_as_argparse_or_leaves_argv_to_it(argv):
    args = read_argv(argv)
    assert args is None or vars(args) == parsed(argv), argv


@pytest.mark.parametrize(
    "argv, read",
    [
        ("count -n 5", True),
        ("count --order -5 --format csv --format json", True),
        ("asympt -n 3 --kind count -n 4 --order 5", True),
        ("enumerate --peakless -n 3 --peakless --end-level 1", True),
        ("export bounded -n 3 -l 2 --method dp", True),
        ("count -n \u0663", True),  # int() reads any decimal digit
        ("count -n5", False),
        ("count --order=5", False),
        ("count -n 5 --form json", False),
        ("count -n -1.5", False),
        ("count -n 5 --out -x", False),
        ("count -- -n 5", False),
        ("count -n 5 -h", False),
        ("count -n x", False),
        ("count", False),
        ("export -n 5", False),
        ("verify --level mid", False),
        ("bogus", False),
    ],
)
def test_the_reader_takes_exactly_the_plain_spellings(argv, read):
    args = read_argv(argv.split())
    assert (args is not None) == read
    if read:
        assert vars(args) == parsed(argv.split())


def test_the_reader_reads_every_pinned_request():
    # the benchmark's traffic: each request it serves skips argparse
    digests = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
    for request in json.loads(digests.read_text()):
        args = read_argv(request.split())
        assert args is not None and vars(args) == parsed(request.split()), request
