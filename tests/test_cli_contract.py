"""Generated argv against the CLI's exit-code contract.

For any mix of options, `cli.main` returns 0, 2 or 3, or argparse raises
SystemExit(2); it never raises anything else and, on correct engines,
never returns 1.  Exit 2 or 3 writes one stderr line, `error: ...` or
`resource cap: ...`, and nothing to stdout or --out; exit 0 writes no
stderr.
"""
import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from peakless.cli import main
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
