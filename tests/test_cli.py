import decimal
import hashlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import peakless
from peakless import asymptotics, bounded, counting, oracle, paths, render, series, verify
from peakless.cli import COLUMN_METHODS, main, read_argv
from peakless.paths import PathConstraints, enumerate_paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "6")
    assert code == 0
    assert out == "1 1 1 2 4 8 17\n"


def test_count_zero(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "0")
    assert code == 0
    assert out == "1\n"


def test_count_sixteen_matches_brute_force(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "16")
    assert code == 0
    want = oracle.brute_force_count(16, PathConstraints(peakless=True))
    assert out.split()[-1] == str(want)


def test_count_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,count\n0,1\n1,1\n2,1\n3,2\n"
    code, out, _ = run_cli(capsys, "count", "-n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n_max": 3, "counts": [1, 1, 1, 2]}


LAST_COUNT = {
    "text": lambda out: out.split()[-1],
    "csv": lambda out: out.splitlines()[-1].split(",")[-1],
    "json": lambda out: json.loads(out)["counts"][-1],
}


def test_count_past_int_str_digit_limit(capsys, tmp_path):
    # m(1600) has 664 digits and A(1600, 10) 648; the CLI prints them in
    # every format even under a 640-digit limit, and leaves the limit as it
    # found it, also when the --out file cannot be opened
    n = 1600  # closed form m(n) = sum_k C(n-k, k) C(n-k-1, k) / (k+1)
    want = sum(comb(n - k, k) * comb(n - k - 1, k) // (k + 1) for k in range(n // 2 + 1))
    join = bounded.bounded_counts_dp(n, [10])[0]  # a route apart from the printed column
    missing = tmp_path / "missing" / "counts.csv"
    cases = [(f"count -n {n} --format {fmt}", fmt, want) for fmt in LAST_COUNT]
    cases.append((f"bounded -n {n} -l 10 --format csv", "csv", join))
    cases.append((f"count -n {n} --out {missing}", None, None))
    for argv, fmt, expect in cases:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, *argv.split())
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(saved)
        if fmt is None:  # the --out file cannot be opened
            assert (code, out) == (2, "") and err.startswith("error: ")
        else:
            assert code == 0
            assert int(LAST_COUNT[fmt](out)) == expect, argv
    assert not missing.exists()


@pytest.mark.parametrize("n", [*range(41), 1600])
def test_count_json_is_json_dumps(capsys, n):
    # the Decimal emitter writes what json.dumps writes for the ints,
    # also under a 640-digit int-to-str limit (m(1600) has 664 digits)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run_cli(capsys, "count", "-n", str(n), "--format", "json")
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0
    payload = {"n_max": n, "counts": counting.peakless_recurrence(n)}
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_bounded_rows(capsys):
    code, out, _ = run_cli(capsys, "bounded", "-n", "6", "-l", "0")
    assert code == 0
    assert out == "1 1 1 1 1 1 1\n"
    code, out, _ = run_cli(capsys, "bounded", "-n", "6", "-l", "3")
    assert out.split()[-1] == "17"
    code, out, _ = run_cli(capsys, "bounded", "-n", "4", "-l", "1")
    assert out.split()[-1] == "4"


def test_bounded_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "bounded", "-n", "3", "-l", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,ell,count"
    assert out.splitlines()[1] == "0,1,1"


def test_bounded_table(capsys):
    code, out, _ = run_cli(capsys, "bounded", "-n", "6", "-l", "2", "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l=0: 1 1 1 1 1 1 1"
    assert lines[2].endswith("17")


@pytest.mark.parametrize("n,l", [(0, 0), (8, 3), (6, 10), (30, 20)])
def test_bounded_table_routes_agree(capsys, n, l):
    # `bounded --table` and `export bounded` (default method and each named
    # one) print one table, and each text line of the table is the
    # single-bound row
    size = ("-n", str(n), "-l", str(l))
    code, table, _ = run_cli(capsys, "bounded", *size, "--table", "--format", "csv")
    assert code == 0
    for method in ((), ("--method", "cf"), ("--method", "det"), ("--method", "dp")):
        exported = run_cli(capsys, "export", "bounded", *size, *method)
        assert exported == (0, table, ""), method
    code, text, _ = run_cli(capsys, "bounded", *size, "--table")
    lines = text.splitlines()
    assert (code, len(lines)) == (0, l + 1)
    for k, line in enumerate(lines):
        prefix = f"l={k}: "
        assert line.startswith(prefix)
        row = run_cli(capsys, "bounded", "-n", str(n), "-l", str(k))
        assert row == (0, line[len(prefix) :] + "\n", ""), k
    # the json that is written row by row is the encoder's, byte for byte
    cells = [map(int, line.split(",")) for line in table.splitlines()[1:]]
    rows = [dict(zip(("n", "ell", "count"), cell)) for cell in cells]
    want = {"n_max": n, "l_max": l, "rows": rows}
    code, out, _ = run_cli(capsys, "bounded", *size, "--table", "--format", "json")
    assert (code, out) == (0, json.dumps(want, sort_keys=True, indent=2) + "\n")
    for method in ("cf", "det", "dp"):
        code, out, _ = run_cli(
            capsys, "export", "bounded", *size, "--method", method, "--format", "json"
        )
        expected = json.dumps(dict(want, method=method), sort_keys=True, indent=2)
        assert (code, out) == (0, expected + "\n"), method


def test_column_routes_name_every_column_stream():
    assert COLUMN_METHODS == tuple(bounded.COLUMN_STREAMS) == tuple(bounded.COLUMN_NAMES)


def test_a_huge_table_bound_joins_each_distinct_column_once(capsys, monkeypatch):
    # no path of length 10 rises above 5: bound 1000 is joined for the
    # printed column, which repeats column 5, and then bounds 4..0, all in
    # one call of the shared-pass joins
    exact, calls = bounded.bounded_counts_dp, []

    def recorded(n, bounds):
        calls.append(tuple(bounds))
        return exact(n, bounds)

    monkeypatch.setattr(bounded, "bounded_counts_dp", recorded)
    assert run_cli(capsys, "bounded", "-n", "10", "-l", "1000", "--table")[0] == 0
    assert calls == [(1000, 4, 3, 2, 1, 0)]


def _plus(values, n, delta):
    # a list or tuple with delta added at index n, if it has one
    if n >= len(values):
        return values
    with decimal.localcontext(counting.EXACT_DECIMAL):  # exact for Decimals too
        return values[:n] + type(values)([values[n] + delta]) + values[n + 1 :]


def _skew(monkeypatch, engine, cell, delta=1):
    # an engine of `counting` or `bounded`, or the column stream
    # "stream:<method>", with delta added where it computes the cell (n, l):
    # A(n, l), or for l None m(n) and coefficient n of every call
    n, l = cell
    if engine.startswith("stream:"):
        method = engine.removeprefix("stream:")
        stream = bounded.COLUMN_STREAMS[method]

        def columns(n_max):
            for k, column in enumerate(stream(n_max)):
                yield _plus(column, n, delta * (k == l))

        monkeypatch.setitem(bounded.COLUMN_STREAMS, method, columns)
        return
    module = counting if hasattr(counting, engine) else bounded
    exact = getattr(module, engine)

    def skewed(*args):  # (n, bounds) for the joins, (bound, size) for columns
        if engine == "bounded_counts_dp":
            bounds = tuple(args[1])
            joins = exact(args[0], bounds)
            return [v + delta * ((args[0], b) == cell) for b, v in zip(bounds, joins)]
        return _plus(exact(*args), n, delta) if l in (None, args[0]) else exact(*args)

    monkeypatch.setattr(module, engine, skewed)


FAR_END = ("recurrence", "closed form")
JOIN = {route: (f"{route} column", "middle join") for route in ("automaton", "ladder")}
TOTAL = ("height distribution total", "closed form")
# (n - 1)//2 + 1 heights, height 0 only for the all-flat path, every count positive
FREE = ("height distribution", "free invariants")

# every printed number with delta added at a cell (n, l) of one engine: the
# two routes its disagreement names, or why the gap is accepted
SECOND_ROUTES = {
    "count head": ("count -n 6", "peakless_series", (6, None), 1, ("functional equation", "recurrence")),
    "count far end": ("count -n 250", "peakless_decimals", (250, None), 1, FAR_END),
    "count far end json": ("count -n 250 --format json", "peakless_decimals", (250, None), 1, FAR_END),
    # m(10305) has 4303 digits, past Python's default int-to-str limit
    "count far end past the digit limit": ("count -n 10305", "peakless_decimals", (10305, None), 1, FAR_END),
    "row head l=0": ("bounded -n 6 -l 0", "bounded_series_det", (6, 0), 1, ("automaton", "strip family")),
    "row head l=2": ("bounded -n 6 -l 2", "bounded_series_det", (6, 2), 1, ("automaton", "strip family")),
    "row head strip family": ("bounded -n 30 -l 5", "_strip_quotient", (5, None), 1, ("automaton", "strip family")),
    "row last term": ("bounded -n 250 -l 10", "bounded_column_dp", (250, 10), 1, JOIN["automaton"]),
    "table last term": ("bounded -n 250 -l 10 --table", "bounded_column_dp", (250, 10), 1, JOIN["automaton"]),
    "table column 3": ("bounded -n 30 -l 5 --table", "stream:dp", (30, 3), 1, JOIN["automaton"]),
    "table column 4 json": ("bounded -n 30 -l 5 --table --format json", "stream:dp", (30, 4), 1, JOIN["automaton"]),
    "gap table inner cell": ("bounded -n 30 -l 5 --table --format csv", "stream:dp", (5, 2), 1, "gap: "
     "only last terms and the last column meet a second route, every cell would cost a second table"),
    "export cf column 3": ("export bounded -n 30 -l 5", "stream:cf", (30, 3), 1, JOIN["ladder"]),
    "export cf column 3 json": ("export bounded -n 30 -l 5 --format json", "stream:cf", (30, 3), 1, JOIN["ladder"]),
    "export det column 3": ("export bounded -n 30 -l 5 --method det", "stream:det", (30, 3), 1,
     ("strip family column", "middle join")),
    "export dp column 0": ("export bounded -n 30 -l 5 --method dp", "stream:dp", (30, 0), 1, JOIN["automaton"]),
    # the determinant quotient is the strip family itself: det meets the automaton
    "export det head": ("export bounded -n 30 -l 5 --method det", "_strip_quotient", (5, None), 1,
     ("strip family", "automaton")),
    "asympt count row": ("asympt --kind count -n 50 -n 700", "peakless_recurrence", (700, None), 1, FAR_END),
    "export report count row": ("export report --kind count -n 700", "peakless_recurrence", (700, None), 1, FAR_END),
    # at the top bound of an odd n a wrong join keeps the free invariants
    "dist total": ("dist -n 299", "bounded_counts_dp", (299, 149), 1, TOTAL),
    "avg_height total": ("asympt --kind avg_height -n 299", "bounded_counts_dp", (299, 149), 1, TOTAL),
    "dist height 0": ("dist -n 300", "bounded_counts_dp", (300, 0), 1, FREE),
    "dist negative count": ("dist -n 12", "bounded_counts_dp", (12, 2), 10**4, FREE),
    "dist trailing height": ("dist -n 300", "bounded_counts_dp", (300, 149), -1, FREE),
    "avg_height trailing height": ("asympt --kind avg_height -n 300", "bounded_counts_dp", (300, 149), -1, FREE),
    "gap dist join below top": ("dist -n 300", "bounded_counts_dp", (300, 20), 1, "gap: a join wrong "
     "below the top keeps the free invariants and cancels in the total; a low-bound route is unmeasured"),
}


@pytest.mark.parametrize(
    "argv, engine, cell, delta, expect", SECOND_ROUTES.values(), ids=list(SECOND_ROUTES)
)
def test_every_printed_number_meets_a_second_route(
    capsys, monkeypatch, tmp_path, argv, engine, cell, delta, expect
):
    _skew(monkeypatch, engine, cell, delta)
    target = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv.split(), "--out", str(target))
    if isinstance(expect, str):  # an accepted gap prints a wrong number
        assert (code, out, err) == (0, "", "")
        monkeypatch.undo()
        code, right, _ = run_cli(capsys, *argv.split())
        assert code == 0 and right != target.read_text()
        return
    assert (code, out) == (1, "") and not target.exists()
    first, second = map(re.escape, expect)
    # the free invariants number their terms by height: "first height=h: "
    index = r"(?:[^\n]* first height=\d+: )?"
    line = rf"engine disagreement[^\n]*\bn={cell[0]}: {index}{first} [^\n]*, {second} [^\n]*\n"
    assert re.fullmatch(line, err), err


def test_a_fault_in_the_join_walk_leaves_the_column_it_meets(capsys, monkeypatch):
    # the middle join's one step loop, `_walk`, shares no code with the
    # automaton column, so a fault there moves the join alone and the row's
    # last term catches it
    column, walk = bounded.bounded_column_dp(10, 250), bounded._walk

    def faulty(*args):
        top, bot = walk(*args)
        return top + 1, bot

    monkeypatch.setattr(bounded, "_walk", faulty)
    assert bounded.bounded_column_dp(10, 250) == column
    code, out, err = run_cli(capsys, "bounded", "-n", "250", "-l", "10")
    assert (code, out) == (1, "")
    line = r"engine disagreement[^\n]*\bn=250: automaton column [^\n]*, middle join [^\n]*\n"
    assert re.fullmatch(line, err), err


@pytest.mark.parametrize("argv", ["count -n 100 --format json", "count -n 250"])
def test_a_short_count_is_a_disagreement(capsys, monkeypatch, tmp_path, argv):
    # m(0..n-1) printed for -n n: the length is held to n + 1, the far end
    # to the closed form at n, not at the last index printed
    exact = counting.peakless_decimals
    monkeypatch.setattr(counting, "peakless_decimals", lambda n: exact(n)[:-1])
    target = tmp_path / "out"
    code, out, _ = run_cli(capsys, *argv.split(), "--out", str(target))
    assert (code, out) == (1, "") and not target.exists()
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    n = argv.split()[2]
    line = rf"engine disagreement[^\n]*\bn={n}: recurrence [^\n]*, closed form [^\n]*\n"
    assert re.fullmatch(line, err), err


@pytest.mark.parametrize("argv", ["count -n 10", "asympt --kind count -n 50"])
def test_an_inexact_recurrence_step_is_a_disagreement(capsys, monkeypatch, argv):
    # m(3) seeded as 3 leaves 33 / 6 at the step to m(4): one disagreement
    # line and exit 1, as for any other pair of routes, and no traceback
    monkeypatch.setattr(counting, "PEAKLESS_INITIAL", (1, 1, 1, 3))
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    line = r"engine disagreement[^\n]*\bn=4: recurrence remainder 3, exact division 0\n"
    assert re.fullmatch(line, err), err


@pytest.mark.parametrize(
    "argv", ["bounded -n 10 -l 2", "export bounded -n 10 -l 2 --method det"]
)
def test_a_non_unit_strip_denominator_is_a_disagreement(capsys, monkeypatch, argv):
    # a faulty strip family whose E_l(0) is no unit cannot be divided: that
    # is one disagreement line and exit 1, not a usage error
    monkeypatch.setattr(bounded, "STRIP_DIAGONAL", (-2, 1, -1))
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    line = r"engine disagreement[^\n]*\bn=0: strip family \d+, unit constant term 1\n"
    assert re.fullmatch(line, err), err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv, engine, cell",
    [
        ("count -n 6", "peakless_series", (6, None)),
        ("bounded -n 6 -l 2", "bounded_series_det", (6, 2)),
        ("bounded -n 6 -l 2 --table", "bounded_series_det", (6, 2)),
    ],
    ids=["count", "bounded", "table"],
)
def test_a_disagreement_writes_nothing(
    capsys, monkeypatch, tmp_path, argv, engine, cell, fmt
):
    # every check runs before the first chunk is written, to stdout or --out
    _skew(monkeypatch, engine, cell)
    words = argv.split()
    code, out, err = run_cli(capsys, *words, "--format", fmt)
    assert (code, out) == (1, "")
    assert "engine disagreement" in err
    target = tmp_path / f"{fmt}.out"
    code, out, err = run_cli(capsys, *words, "--format", fmt, "--out", str(target))
    assert (code, out) == (1, "")
    assert "engine disagreement" in err and not target.exists()


def test_bounded_names_every_mismatching_index(capsys, monkeypatch):
    def broken(bound, order):
        warped = list(bounded.bounded_count_table(order, bound, "cf")[bound])
        for i in range(3, 10):
            warped[i] += 1
        return tuple(warped)

    monkeypatch.setattr(bounded, "bounded_series_det", broken)
    code, out, err = run_cli(capsys, "bounded", "-n", "12", "-l", "2")
    assert code == 1
    assert out == ""
    assert "7 mismatching terms" in err
    for i in range(3, 8):  # the first five are named, the rest only counted
        assert f"n={i}:" in err
    assert "n=8:" not in err and "n=9:" not in err
    assert "automaton 2, strip family 3" in err  # n = 3


def run_chunked(*argv):
    # main's exit code, the length of each chunk written to stdout, and the
    # most a chunk may hold: CHUNK plus the longest piece `render.batched`
    # took, with its separator and `end`
    writes, longest = [], [0]
    batched = render.batched

    def recording(pieces, sep="", end=""):
        def seen(piece):
            longest[0] = max(longest[0], len(sep) + len(piece) + len(end))
            return piece

        return batched(map(seen, pieces), sep, end)

    class Sink:
        def writelines(self, chunks):
            writes.extend(map(len, chunks))

        def flush(self):
            pass

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "batched", recording)
        patch.setattr(sys, "stdout", Sink())
        code = main(list(argv))
    return code, writes, render.CHUNK + longest[0]


def test_output_is_written_in_bounded_chunks():
    # m(0..3000) is 1.9 MB of csv, m(0..10000) 21 MB; the 853 467 paths of
    # length 16 are 14.5 MB of text and 20 MB of json, written in prefix
    # blocks of 1 to 518 paths; no single write holds much of any of them
    for argv in (
        "count -n 3000 --format csv",
        "count -n 10000 --format csv",
        "count -n 5000 --format json",
        "enumerate -n 16",
        "enumerate -n 16 --format json",
    ):
        code, writes, bound = run_chunked(*argv.split())
        assert code == 0 and len(writes) > 20 and max(writes) <= bound, argv


def test_enumerate_text_is_streamed():
    # `enumerate -n 14 -l 3` lists 98 514 paths, 1.5 MB of text, without
    # holding them; an empty listing still writes nothing at all
    code, writes, bound = run_chunked("enumerate", "-n", "14", "-l", "3")
    assert code == 0 and sum(writes) == 1477710
    assert len(writes) > 10 and max(writes) <= bound
    code, writes, _ = run_chunked("enumerate", "-n", "1", "--end-level", "2")
    assert code == 0 and sum(writes) == 0


@pytest.mark.parametrize(
    "argv",
    [
        "enumerate -n 1 --end-level 2",
        "enumerate -n 0",
        "dist -n 0",
        "count -n 0",
        "bounded -n 0 -l 0",
        "bounded -n 0 -l 0 --table",
        "verify --level quick",
        "asympt --kind count -n 1 -n 3000",
        "asympt --kind avg_height -n 30",
    ],
)
def test_json_is_the_encoders(capsys, argv):
    # every payload goes through one writer, with json.dumps's bytes
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_dist_text(capsys):
    code, out, _ = run_cli(capsys, "dist", "-n", "4")
    assert code == 0
    assert out == "0:1 1:3  E[H]=3/4\n"


def test_dist_json(capsys):
    code, out, _ = run_cli(capsys, "dist", "-n", "4", "--format", "json")
    payload = json.loads(out)
    assert payload == {
        "n": 4,
        "distribution": [1, 3],
        "expected_height": "3/4",
        "expected_height_float": 0.75,
    }


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "4", "--peakless")
    assert code == 0
    assert out == "FFFF\nFUFD\nUFFD\nUFDF\n"
    code, out, _ = run_cli(capsys, "enumerate", "-n", "1", "--end-level", "1")
    assert out == "U\n"
    code, out, _ = run_cli(capsys, "enumerate", "-n", "4", "--peakless", "-l", "0")
    assert out == "FFFF\n"


def test_enumerate_blocks_print_the_listing(capsys):
    # the listing written one prefix block at a time has the bytes of the
    # path iterator, one per line or as json.dumps writes the list, empty
    # listings included (no text at all, json `[]`)
    grid = itertools.product(range(11), (False, True), (None, 0, 1, 2, 5), range(3))
    for n, peakless, bound, end in grid:
        if bound is not None and end > bound:
            continue
        found = list(enumerate_paths(n, PathConstraints(peakless, bound, end)))
        argv = ["enumerate", "-n", str(n), "--end-level", str(end)]
        argv += ["--peakless"] * peakless
        argv += [] if bound is None else ["-l", str(bound)]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, "".join(path + "\n" for path in found)), argv
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        want = json.dumps({"n": n, "paths": found}, sort_keys=True, indent=2) + "\n"
        assert (code, out) == (0, want), argv


def test_enumerate_rejects_csv(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "-n", "4", "--format", "csv"])
    assert info.value.code == 2


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "-n", "20", "--peakless")
    assert code == 3
    assert "cap" in err
    code, _, err = run_cli(capsys, "enumerate", "-n", "5", "--oracle-cap", "4")
    assert code == 3


def test_negative_oracle_cap_is_a_usage_error(capsys):
    # a malformed cap exits 2, never 3 as a resource cap
    code, out, err = run_cli(capsys, "enumerate", "-n", "3", "--oracle-cap", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "nonnegative" in err


def _ignores_the_retired_cap_variable(capsys, monkeypatch, *argv):
    # --oracle-cap is the one setting of the brute-force budget: a
    # PEAKLESS_ORACLE_CAP in the environment, small or not an integer,
    # leaves the request and its bytes as they are
    usual = run_cli(capsys, *argv)[:2]
    assert usual[0] == 0
    for value in ("3", "abc"):
        monkeypatch.setenv("PEAKLESS_ORACLE_CAP", value)
        assert run_cli(capsys, *argv)[:2] == usual, value


def test_enumerate_cap_env(capsys, monkeypatch):
    _ignores_the_retired_cap_variable(capsys, monkeypatch, "enumerate", "-n", "4")


def test_the_oracle_cap_reads_no_environment_variable(capsys, monkeypatch):
    _ignores_the_retired_cap_variable(
        capsys, monkeypatch, "verify", "--format", "json"
    )


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "PASS five_way_agreement" in out
    assert "checks passed (quick)" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == "quick"
    assert payload["failures"] == []
    assert all(r["ok"] for r in payload["results"])


def test_verify_failure_lists_machine_readable(capsys, monkeypatch):
    def broken(pair, order):
        return (9,) + (0,) * order

    monkeypatch.setattr(bounded, "_strip_quotient", broken)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL" in out
    blob = out[out.index("{") :]
    failures = json.loads(blob)["failures"]
    assert any("strip family" in f["detail"] for f in failures)


# the quick suite at length 17, one past the brute-force cap
QUICK_PAST_THE_CAP = (17, 4, 30, 500, None)


def test_verify_oracle_cap_exits_3(capsys, monkeypatch):
    # the five-way check asks the oracle for length 17, which the cap stops
    monkeypatch.setitem(verify.SIZES, "quick", QUICK_PAST_THE_CAP)
    code, out, err = run_cli(capsys, "verify")
    assert (code, out) == (3, "")
    assert err == (
        "resource cap: brute-force length limited to n <= 16; out of budget: [17]\n"
    )


def test_asympt_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--kind", "count", "-n", "100")
    assert code == 0
    assert out.startswith("kind=count")
    assert "n=100" in out
    code, out, _ = run_cli(
        capsys, "asympt", "--kind", "avg_height", "-n", "50", "--format", "csv"
    )
    assert out.splitlines()[0] == "n,exact,predicted,ratio"
    assert out.splitlines()[1].startswith("50,")


def test_asympt_resource_cap(capsys):
    code, _, err = run_cli(capsys, "asympt", "--kind", "avg_height", "-n", "501")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("kind", ["count", "avg_height"])
def test_asympt_negative_cap_is_a_usage_error(capsys, kind):
    code, out, err = run_cli(capsys, "asympt", "--kind", kind, "-n", "5", "--cap", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "nonnegative" in err


# the budget gate's two message forms, one per exit code
GATE_MESSAGES = {
    3: re.compile(r"^resource cap: .+ limited to n <= \d+; out of budget: \[[\d, ]+]$"),
    2: re.compile(r"^error: .+ cap must be nonnegative, got -2$"),
}


@pytest.mark.parametrize(
    "argv, code",
    [
        ("enumerate -n 20", 3),
        ("enumerate -n 5 --oracle-cap 4", 3),
        ("verify", 3),
        ("asympt --kind avg_height -n 501", 3),
        ("asympt --kind count -n 100 --cap 50", 3),
        ("export report -n 30 --cap 10", 3),
        ("enumerate -n 3 --oracle-cap -2", 2),
        ("asympt --kind count -n 5 --cap -2", 2),
        ("asympt --kind avg_height -n 5 --cap -2", 2),
    ],
)
def test_every_budget_goes_through_one_gate(capsys, monkeypatch, argv, code):
    # one message form per outcome, whichever route; verify reaches its cap
    # only at a length past it
    monkeypatch.setitem(verify.SIZES, "quick", QUICK_PAST_THE_CAP)
    got, out, err = run_cli(capsys, *argv.split())
    assert (got, out) == (code, "")
    assert err.endswith("\n") and GATE_MESSAGES[code].match(err[:-1]), err


def test_byte_stable_machine_output(capsys):
    first = run_cli(capsys, "asympt", "--kind", "count", "-n", "100", "--format", "json")
    second = run_cli(capsys, "asympt", "--kind", "count", "-n", "100", "--format", "json")
    assert first == second
    a = run_cli(capsys, "bounded", "-n", "8", "-l", "2", "--table", "--format", "csv")
    b = run_cli(capsys, "bounded", "-n", "8", "-l", "2", "--table", "--format", "csv")
    assert a == b


def test_export_bounded(capsys):
    code, out, _ = run_cli(
        capsys, "export", "bounded", "-n", "4", "-l", "2", "--method", "dp",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "dp"
    assert payload["rows"][0] == {"n": 0, "ell": 0, "count": 1}


# one line per mistake, whichever request makes it: each size below its
# domain goes through one gate, `errors.check_sizes`
NEGATIVE = "error: {} must be nonnegative, got {}\n".format
BELOW_ONE = "error: report length must be at least 1, got {}\n".format
NEGATIVE_SIZES = {
    "export bounded -n 5 -l -2": NEGATIVE("bound", -2),
    "export bounded -n 5 -l -2 --method det": NEGATIVE("bound", -2),
    "export bounded -n 5 -l -2 --method dp": NEGATIVE("bound", -2),
    "export bounded -n -1 -l 2 --method dp": NEGATIVE("length", -1),
    "export bounded -n -1 -l 2": NEGATIVE("length", -1),
    "export bounded -n -1 -l 2 --method det": NEGATIVE("length", -1),
    "bounded -n 5 -l -1": NEGATIVE("bound", -1),
    "bounded -n 5 -l -1 --table": NEGATIVE("bound", -1),
    "bounded -n -1 -l 2": NEGATIVE("length", -1),
    "bounded -n -1 -l 2 --table": NEGATIVE("length", -1),
    "dist -n -1": NEGATIVE("length", -1),
    "count -n -1": NEGATIVE("length", -1),
    "enumerate -n -1": NEGATIVE("length", -1),
    "enumerate -n 4 -l -1": NEGATIVE("bound", -1),
    "enumerate -n 4 --end-level -1": NEGATIVE("end level", -1),
    "enumerate -n 4 -l 1 --end-level 2": "error: end level cannot exceed bound\n",
    "asympt --kind count -n -1": BELOW_ONE(-1),
    "asympt --kind avg_height -n 0": BELOW_ONE(0),
    "export report -n 0": BELOW_ONE(0),
}


@pytest.mark.parametrize("argv", NEGATIVE_SIZES)
def test_export_bounded_negative_size_is_a_usage_error(capsys, argv):
    # every subcommand that takes a size has a row
    assert run_cli(capsys, *argv.split()) == (2, "", NEGATIVE_SIZES[argv])


def test_export_report(capsys):
    code, out, _ = run_cli(
        capsys, "export", "report", "--kind", "count", "-n", "100", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "count"
    assert payload["rows"][0]["n"] == 100


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "export", "bounded", "-n", "3", "-l", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "n,ell,count"


@pytest.mark.parametrize(
    "argv",
    [
        "export report --kind count -n 30 -l 3",
        "export report --kind count -n 30 --method det",
        "export bounded -n 6 -l 2 --kind count",
        "export bounded -n 6 -l 2 --count-cap 100",
        "export bounded -n 6 -l 2 --height-cap 100",
        "export bounded -n 6 -l 2 --cap 100",
        "export bounded -n 4 -l 2 --method magic",
    ],
)
def test_export_rejects_options_its_table_ignores(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    assert info.value.code == 2
    assert argv.split()[-2] in capsys.readouterr().err  # names the foreign option


def test_export_defaults(capsys):
    code, out, _ = run_cli(
        capsys, "export", "bounded", "-n", "3", "-l", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["method"] == "cf"
    code, out, _ = run_cli(capsys, "export", "report", "-n", "30", "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "count"


def test_out_unwritable_path_exits_2(tmp_path, capsys):
    # an empty --out names a file too: it fails to open, never falls to stdout
    target = tmp_path / "missing" / "table.csv"
    for path in (str(target), ""):
        code, out, err = run_cli(
            capsys, "export", "bounded", "-n", "3", "-l", "1", "--out", path
        )
        assert code == 2, path
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not target.exists()


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count"])  # missing -n
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["export", "bounded", "-n", "4"])  # missing -l
    assert info.value.code == 2


def run_python(*args, timeout=None, stdout=subprocess.PIPE, **env):
    # the child imports the same checkout as this test run, installed or not,
    # and without PYTHONUNBUFFERED its stdout is block-buffered, as a user's is
    src = str(Path(peakless.__file__).parent.parent)
    search = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(search), **env)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
    )


def run_module(*argv, timeout=None, **env):
    return run_python("-m", "peakless", *argv, timeout=timeout, **env)


def test_import_loads_no_numpy():
    # the package depends on no numpy, so no request pays for importing it
    code = "import sys, peakless, peakless.cli; print('numpy' in sys.modules)"
    proc = run_python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


FRONT_END = {"argparse", "gettext", "locale", "typing"}  # argparse's imports


def _modules_after(code):
    # the peakless, dataclasses and decimal modules and those of FRONT_END
    # that a fresh interpreter holds after code, printed on the last line of
    # its stdout; -S keeps site from loading any of them first
    names = ("peakless.", "dataclasses", "decimal", *FRONT_END)
    shown = f"(m for m in sys.modules if m.startswith({names}))"
    proc = run_python("-S", "-c", f"import sys\n{code}\nprint(*{shown})")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_submodule():
    assert _modules_after("import peakless") == set()


ENGINE_MODULES = {"peakless.counting", "peakless.bounded"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (
            ["enumerate", "-n", "4"],
            {"counting", "bounded", "oracle", "verify", "asymptotics"},
        ),
        (
            ["count", "-n", "4"],
            {"bounded", "series", "oracle", "paths", "verify", "asymptotics"},
        ),
        (["asympt", "--kind", "count", "-n", "10"], {"bounded", "series"}),
        (["bounded", "-n", "6", "-l", "2"], {"counting", "decimal"}),
        (
            ["export", "bounded", "-n", "6", "-l", "2", "--method", "det"],
            {"counting", "decimal"},
        ),
        # the total of a distribution meets the closed form of `counting`
        (["dist", "-n", "6"], {"series", "oracle", "paths", "verify", "asymptotics"}),
        (
            ["asympt", "--kind", "avg_height", "-n", "10"],
            {"series", "oracle", "paths", "verify"},
        ),
    ],
)
def test_a_request_loads_only_its_engines(argv, unused):
    # a request loads none of the modules named unused (`decimal` is the
    # standard library's) and each engine module it does not name
    loaded = _modules_after(f"from peakless import cli; cli.main({argv})")
    unused = {name if name == "decimal" else f"peakless.{name}" for name in unused}
    assert loaded & unused == set()
    assert ENGINE_MODULES - unused <= loaded


# one well-formed request per subcommand
REQUESTS = [
    "count -n 4",
    "bounded -n 6 -l 2 --table",
    "dist -n 6",
    "enumerate -n 4",
    "verify",
    "asympt --kind avg_height -n 10",
    "export bounded -n 6 -l 2",
    "export report -n 10",
]


def test_no_subcommand_loads_dataclasses():
    calls = "".join(f"cli.main({r.split()})\n" for r in REQUESTS)
    loaded = _modules_after(f"from peakless import cli\n{calls}")
    assert "peakless.verify" in loaded and "dataclasses" not in loaded


@pytest.mark.parametrize("request_", REQUESTS)
def test_a_well_formed_request_loads_no_argparse(request_):
    # cli.read_argv reads it; argparse is built only for help and usage errors
    loaded = _modules_after(f"from peakless import cli\ncli.main({request_.split()})")
    assert loaded & FRONT_END == set()


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["count", "-n", "x"], 2)])
def test_help_and_usage_errors_load_argparse(argv, code):
    call = f"with contextlib.suppress(SystemExit):\n    cli.main({argv})"
    loaded = _modules_after(f"import contextlib\nfrom peakless import cli\n{call}")
    assert "argparse" in loaded
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout == "") == (code, code != 0)


def test_module_entry_point(capsys, monkeypatch):
    # the process entry ends at os._exit once its output is flushed: a
    # request's bytes, exit code and stderr are main's own
    proc = run_module("count", "-n", "4")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 1 1 2 4\n", "")
    argv = "count -n 3000 --format csv".split()  # 1.9 MB, many buffer fills
    proc = run_module(*argv, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli(capsys, *argv)[1]
    proc = run_module("enumerate", "-n", "20")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert re.fullmatch(r"resource cap: [^\n]*\n", proc.stderr), proc.stderr
    proc = run_module("count", "-n", "-1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"error: [^\n]*\n", proc.stderr), proc.stderr
    # argparse's --help leaves the normal way, with the in-process text
    monkeypatch.setenv("COLUMNS", "80")  # one help width for both
    proc = run_module("--help")
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
def test_a_failed_final_write_exits_2():
    # the last block-buffered chunk is flushed inside the OSError mapping,
    # not at interpreter exit, so the failure is one error line and exit 2
    with open("/dev/full", "w") as full:
        proc = run_module("count", "-n", "10", stdout=full)
    assert proc.returncode == 2
    assert re.fullmatch(r"error: [^\n]*\n", proc.stderr), proc.stderr


def test_bounded_huge_bound_is_read_as_half_the_length():
    # no path of length <= 10 rises above 5, so the row and its cross-check
    # cost no more than bound 5; a timeout fails the test instead of hanging
    proc = run_module("bounded", "-n", "10", "-l", "100000000", timeout=30)
    assert proc.returncode == 0
    assert proc.stdout == "1 1 1 2 4 8 17 37 82 185 423\n"


# sha256 of the exact stdout of every subcommand x format pair at small sizes;
# csv and json bytes are a stable interface, and text output is pinned too
GOLDEN_STDOUT = [
    ("count -n 12", "863faff6d2a28517a29cf44dd92d85a8496ac287ee2871df0963c3943d87c232"),
    ("count -n 12 --format csv", "d08bae7baa4eaf76bc6160db67543bfba9fb2042fc06373e822f427d0c1ddaeb"),
    ("count -n 12 --format json", "268c8a523b0c79d7fed2499cd9981030659c5f79a5cee2a120deb37ab8f54e22"),
    ("bounded -n 10 -l 2", "c601d7273fc00465e2bd6264dda0fa016975e921e4ceb98d8c3325f927117d63"),
    ("bounded -n 10 -l 2 --format csv", "9cf226b119d40834f62ff28a75f1f8fbd900b6370a318d95eba5816b1c4df1a8"),
    ("bounded -n 10 -l 2 --format json", "71df1e438e7bddb0bd64e407d4931477d2889ab81398740b7e6447c50f6253bb"),
    ("bounded -n 8 -l 3 --table", "46bd20cd002ce6e7720862180845e3752010fb66ddd15d7c3f2b1d047ef96baa"),
    ("bounded -n 8 -l 3 --table --format csv", "b6c9dfb1b8bab86d5c95b2484877a040570f94f05e9aa4679a24954484c89f52"),
    ("bounded -n 8 -l 3 --table --format json", "aa5ae98b2bf5493206a3ff306d588e375eecd3820355aaf437d9494c8a62e72a"),
    ("dist -n 10", "b44dfa179932712b365e3789f84dd3f86c42d2fb42621493b545aeb98143105b"),
    ("dist -n 10 --format csv", "c9105d6b98f0094d723b835eba7de4ffc10eef249f72722ebdba04b1a80178e1"),
    ("dist -n 10 --format json", "6ca0a1ea0e85f68a063e76c1bad001de5209c46124b4a7038703e408cb16418f"),
    # odd lengths, whose counts come through the middle join's odd form
    ("dist -n 11", "84d22e9f855327c0964e3e99eaf4d75758d1f159c19475d81e8fdef60f7af7d1"),
    ("dist -n 11 --format json", "00ab15da7f8ff6abb11e8e5d5362abe7e1ef2d313352075147bffe9c0cd83628"),
    ("bounded -n 11 -l 3 --table --format csv", "cb0c8bec2808fab8559eeb21b595dc9302b79028798dfb92f90d624f63f12e9b"),
    ("asympt --kind avg_height -n 15 --format csv", "dd4fa68d4e7f984151bbf5bf13fabcfbf68d92448d630cc977f9f2158faec552"),
    ("enumerate -n 6 --peakless", "df0e022223931c7aa4e09cd723d831cc6ce3cd3c6affef7f43d1a22ff6f99dab"),
    ("enumerate -n 6 --peakless --format json", "67ab013eca7a704394a822698d7daf13e4e06187b1d7691106b36cec3e4c5761"),
    ("enumerate -n 1 --end-level 2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --kind count -n 50 -n 2000", "85c453b1d6451e684415bb6f6f349252466bca60f79ded5bbd6a509a1f6e7f8b"),
    ("asympt --kind count -n 50 -n 2000 --format csv", "4778e99facc6926c362320d5db061ece202b93eb82c84d92120f9f02342feb5b"),
    ("asympt --kind count -n 50 -n 2000 --format json", "bf42e175bcaee22b3482f44a4bd78277574ce7f4042d3b97e6ae2a973d72a701"),
    ("asympt --kind avg_height -n 20 -n 40", "5a8c24ca60df70074dbea0e75fcdda710cc386d38fed26136c220a5b449e1c24"),
    ("asympt --kind avg_height -n 20 -n 40 --format csv", "a89ca097790a74612e078653f54d4edef8fbdd8a12822398b008ca20690fcab5"),
    ("asympt --kind avg_height -n 20 -n 40 --format json", "b0dc950da67619f478727c7790a0ff52fe3dd36146ca42da5dfb1058f5a85256"),
    ("export bounded -n 6 -l 2", "dbb22c0ef6769003151da95999e31d21ebb30df0371037898feb988a3d9f2530"),
    ("export bounded -n 6 -l 2 --method det --format json", "eba55c2a00045afc523e3e76eb0be6298748330d91119e5637e7c02995e658ae"),
    ("export report --kind count -n 30", "6d2f1a63b3b522fb054cca4aa64ee92740fbcbffba5512684d590463045bea2c"),
    ("export report --kind avg_height -n 30 --format json", "3fadbe782e2d2dd267b1cfc9a859e5e893dd1550093a3706025d0dc2b126d141"),
]


@pytest.mark.parametrize("argv,sha256", GOLDEN_STDOUT, ids=[a for a, _ in GOLDEN_STDOUT])
def test_golden_stdout_bytes(capsys, argv, sha256):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256, out


def test_no_golden_request_is_a_pinned_one():
    # the requests pinned in perfbench/digests.json have their own test
    # below, so each stdout has one home in the suite
    pinned = [vars(read_argv(request.split())) for request in PINNED]
    golden = [vars(read_argv(argv.split())) for argv, _ in GOLDEN_STDOUT]
    assert [namespace for namespace in golden if namespace in pinned] == []


# the benchmark's requests, each with the exit code and stdout sha256 it is pinned to
PINNED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text()
)


@pytest.fixture(scope="module")
def entered():
    # the code objects each pinned request entered, recorded while its bytes
    # are checked, so the requests run once for both tests that read them
    return {}


def run_recorded(capsys, argv, entered):
    # main under a profile hook that records every Python function it enters
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        result = run_cli(capsys, *argv.split())
    finally:
        sys.setprofile(previous)
    entered[argv] = called
    return result


@pytest.mark.parametrize("argv", list(PINNED))
def test_pinned_request_bytes(capsys, entered, argv):
    code, out, _ = run_recorded(capsys, argv, entered)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    pin = PINNED[argv]
    assert (code, digest) == (pin["exit"], pin["sha256"])


# exported functions that no pinned request calls, each with its reason
LIBRARY_ONLY = {
    "brute_force_count": "perfbench/pin.py counts paths by PathConstraints with it",
}


def test_the_public_surface_is_what_the_pinned_requests_call(capsys, entered):
    # every module-level public function of an engine module that a pinned
    # request calls is exported (in `__all__`) as itself, and every exported
    # function is called by one, or is library-only for a stated reason
    for argv in PINNED.keys() - entered.keys():  # run alone: record here
        run_recorded(capsys, argv, entered)
    reached = set().union(*entered.values())
    engines = (asymptotics, bounded, counting, oracle, paths, series)
    members = [
        (module.__name__, name, obj)
        for module in engines
        for name, obj in vars(module).items()
        if not name.startswith("_")
    ]
    # a cached function is entered only on a miss, so none may be public
    assert [name for _, name, obj in members if hasattr(obj, "cache_info")] == []
    public = {
        f"{module}.{name}": obj
        for module, name, obj in members
        if inspect.isfunction(obj) and obj.__module__ == module
    }
    unexported = [
        qualified
        for qualified, fn in public.items()
        if fn.__code__ in reached and getattr(peakless, fn.__name__, None) is not fn
    ]
    assert unexported == []
    idle = [
        name
        for name in peakless.__all__
        if inspect.isfunction(fn := getattr(peakless, name))
        and fn.__code__ not in reached
    ]
    assert idle == sorted(LIBRARY_ONLY)
