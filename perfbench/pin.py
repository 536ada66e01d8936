"""Pin the expected stdout of every benchmark request in digests.json.

    PYTHONPATH=src python3 perfbench/pin.py

Run from the repository root.  Each request of every grid in workloads.py
is served once through the CLI.  Its output is parsed and checked against
references that do not share the engine that produced it, and only then
is its sha256 recorded:

* counts against tests/data/a004148_prefix.txt, the brute-force oracle for
  n <= 14, and the closed form m(n) = sum_k C(n-k, k) C(n-k-1, k) / (k+1)
  at sampled indices and at every request's last index;
* bounded counts (rows, tables, exports) against the oracle for n <= 14 and
  against the automaton DP at the largest n;
* height distributions against the oracle for n <= 14; otherwise their
  total against the closed form and their mean against
  sum_l (m(n) - A(n, l)) / m(n) with A from the determinant engine;
* convergence-report rows against the closed form and that mean;
* enumerated paths against a direct walk of each path and the oracle count;
* verify against its own all-pass verdict.

The over-limit `count` request is recorded as a known defect (exit 2 and
the int->str limit message); its pinned digest is the correct output,
rendered here with the limit lifted, which a fixed CLI must print.
"""
import functools
import hashlib
import json
import math
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
sys.set_int_max_str_digits(0)

from peakless import counting, oracle  # noqa: E402
from peakless.paths import PathConstraints  # noqa: E402
from run import WORK, Client  # noqa: E402
from workloads import OVER_LIMIT, SMOKE, WORKLOADS  # noqa: E402

PREFIX_FILE = ROOT / "tests" / "data" / "a004148_prefix.txt"
ORACLE_N = 14
DEFECT_MESSAGE = "Exceeds the limit (4300 digits) for integer string conversion"


def closed_form(n):
    """m(n) by the Narayana-type sum, independent of every engine."""
    if n == 0:
        return 1
    total = 0
    for k in range((n - 1) // 2 + 1):
        term, rem = divmod(math.comb(n - k, k) * math.comb(n - k - 1, k), k + 1)
        assert rem == 0
        total += term
    return total


def prefix_reference():
    rows = [line.split() for line in PREFIX_FILE.read_text().splitlines()]
    return [int(r[1]) for r in rows if r and not r[0].startswith("#")]


def brute(n, **constraints):
    return oracle.brute_force_count(n, PathConstraints(peakless=True, **constraints))


@functools.lru_cache(maxsize=None)
def mean_height(n):
    """E[H] from determinant-engine columns and the closed form."""
    total = closed_form(n)
    tail = sum(
        total - (counting.bounded_series_det(l, n)[n] if l else 1)
        for l in range(n // 2 + 1)
    )
    return Fraction(tail, total)


def flag(args, name, default=None):
    if name not in args:
        return default
    return args[args.index(name) + 1]


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def check_counts(values, n):
    check(len(values) == n + 1, "length")
    prefix = prefix_reference()
    check(values[: len(prefix)] == prefix[: n + 1], "A004148 prefix")
    for k in range(min(n, ORACLE_N) + 1):
        check(values[k] == brute(k), f"oracle m({k})")
    for k in sorted({n, n // 2, n // 3, n // 7}):
        check(values[k] == closed_form(k), f"closed form m({k})")


def check_bounded(cells, bound):
    """cells: {(n, l): A(n, l)} for one or more bounds l <= bound."""
    n_max = max(n for n, _ in cells)
    for (n, l), value in cells.items():
        if n <= ORACLE_N:
            check(value == brute(n, max_height=l), f"oracle A({n}, {l})")
        elif n == n_max:
            check(value == counting.bounded_count_dp(n, l), f"dp A({n}, {l})")


def parse_rows(text, fmt):
    if fmt == "json":
        return {(r["n"], r["ell"]): r["count"] for r in json.loads(text)["rows"]}
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return {(int(n), int(l)): int(c) for n, l, c in rows}


def check_report(text, fmt, kind, ns):
    if fmt == "json":
        rows = [(r["n"], r["exact"], r["ratio"]) for r in json.loads(text)["rows"]]
    elif fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        rows = [(int(n), exact, float(ratio)) for n, exact, _, ratio in rows]
    else:
        rows = []
        for line in text.splitlines()[1:]:
            cells = dict(tok.split("=", 1) for tok in line.split())
            rows.append((int(cells["n"]), cells["exact"], float(cells["ratio"])))
    check([r[0] for r in rows] == ns, "report rows")
    for n, exact, ratio in rows:
        if kind == "count":
            # exact is a float or, past float range, "mantissa e+exponent"
            mantissa, _, exponent = str(exact).partition("e+")
            log_exact = math.log(float(mantissa)) + int(exponent or 0) * math.log(10)
            log_want = math.log(closed_form(n))
            check(abs(log_exact - log_want) < 1e-8, f"report m({n})")
            log_pred = (
                0.25 * math.log(5) - (n + 1) * math.log((3 - math.sqrt(5)) / 2)
                - math.log(2) - 0.5 * math.log(math.pi) - 1.5 * math.log(n)
            )
            want_ratio = math.exp(log_want - log_pred)
            check(math.isclose(ratio, want_ratio, rel_tol=1e-9, abs_tol=1e-6),
                  f"ratio at {n}")  # text prints the ratio to 6 places
        else:
            want = float(mean_height(n))
            check(math.isclose(float(exact), want, rel_tol=1e-12), f"E[H] at {n}")
            pred = 2 * 5**-0.25 * math.sqrt(math.pi * n)
            check(math.isclose(ratio, want / pred, rel_tol=1e-12, abs_tol=1e-6),
                  f"ratio at {n}")


def check_paths(paths, n, peakless, bound, end):
    check(paths == sorted(set(paths), key=lambda p: p.translate(str.maketrans("FUD", "012"))),
          "lexicographic F < U < D, no repeats")
    for path in paths:
        level, top = 0, 0
        check(len(path) == n, "length")
        for step in path:
            level += {"U": 1, "D": -1, "F": 0}[step]
            top = max(top, level)
            check(level >= 0, "below the axis")
        check(level == end, "end level")
        check(bound is None or top <= bound, "height bound")
        check(not peakless or "UD" not in path, "peak")
    constraints = PathConstraints(peakless=peakless, max_height=bound, end_level=end)
    check(len(paths) == oracle.brute_force_count(n, constraints), "oracle count")


def check_output(request, text):
    args = request.split()
    cmd, fmt = args[0], flag(args, "--format", "text")
    if cmd == "count":
        n = int(flag(args, "-n"))
        if fmt == "json":
            values = json.loads(text)["counts"]
        elif fmt == "csv":
            values = [int(line.split(",")[1]) for line in text.splitlines()[1:]]
        else:
            values = [int(v) for v in text.split()]
        check_counts(values, n)
    elif cmd == "bounded" and "--table" in args:
        n, bound = int(flag(args, "-n")), int(flag(args, "-l"))
        if fmt == "text":
            cells = {}
            for line in text.splitlines():
                head, tail = line.split(": ")
                l = int(head[2:])
                cells.update({(i, l): int(v) for i, v in enumerate(tail.split())})
        else:
            cells = parse_rows(text, fmt)
        check(len(cells) == (n + 1) * (bound + 1), "table size")
        check_bounded(cells, bound)
    elif cmd == "bounded":
        n, bound = int(flag(args, "-n")), int(flag(args, "-l"))
        if fmt == "json":
            values = json.loads(text)["counts"]
        elif fmt == "csv":
            values = [int(line.split(",")[2]) for line in text.splitlines()[1:]]
        else:
            values = [int(v) for v in text.split()]
        check(len(values) == n + 1, "length")
        check_bounded({(i, bound): v for i, v in enumerate(values)}, bound)
    elif cmd == "export" and args[1] == "bounded":
        n, bound = int(flag(args, "-n")), int(flag(args, "-l"))
        cells = parse_rows(text, fmt if fmt == "json" else "csv")
        check(len(cells) == (n + 1) * (bound + 1), "table size")
        check_bounded(cells, bound)
    elif cmd == "dist":
        n = int(flag(args, "-n"))
        if fmt == "json":
            payload = json.loads(text)
            dist, mean = payload["distribution"], Fraction(payload["expected_height"])
        elif fmt == "csv":
            dist = [int(line.split(",")[1]) for line in text.splitlines()[1:]]
            mean = None
        else:
            pairs, mean_text = text.split("  E[H]=")
            dist = [int(p.split(":")[1]) for p in pairs.split()]
            mean = Fraction(mean_text.strip())
        if n <= ORACLE_N:
            check(dist == oracle.height_counts(n, peakless=True), "oracle heights")
        check(sum(dist) == closed_form(n), "total")
        want = mean_height(n)
        check(Fraction(sum(h * c for h, c in enumerate(dist)), sum(dist)) == want, "mean")
        check(mean is None or mean == want, "printed mean")
    elif cmd in ("asympt", "export"):
        ns = [int(args[i + 1]) for i, a in enumerate(args) if a == "-n"]
        kind = flag(args, "--kind")
        check_report(text, fmt if cmd == "asympt" else (fmt if fmt == "json" else "csv"),
                     kind, ns)
    elif cmd == "enumerate":
        n = int(flag(args, "-n"))
        paths = json.loads(text)["paths"] if fmt == "json" else text.splitlines()
        bound = flag(args, "-l")
        check_paths(paths, n, "--peakless" in args, bound and int(bound),
                    int(flag(args, "--end-level", 0)))
    elif cmd == "verify":
        payload = json.loads(text)
        check(payload["failures"] == [] and all(r["ok"] for r in payload["results"]),
              "verify verdict")
    else:
        raise AssertionError(f"no reference check for {request!r}")


def pin_over_limit(request, outputs):
    n = int(request.split()[-1])
    values = counting.peakless_recurrence(n)
    check(values[n] == closed_form(n), "closed form at the over-limit n")
    shorter = [r for r in outputs if r.startswith("count -n ") and "--format" not in r]
    for r in shorter:  # the pinned text outputs are prefixes of this one
        m = int(r.split()[-1])
        check(outputs[r] == " ".join(str(v) for v in values[: m + 1]) + "\n", r)
    fixed = (" ".join(str(v) for v in values) + "\n").encode()
    return {
        "exit": 0,
        "sha256": hashlib.sha256(fixed).hexdigest(),
        "known_defect": {"exit": 2, "stderr": DEFECT_MESSAGE},
    }


def main():
    workloads = list(WORKLOADS.values()) + list(SMOKE.values())
    requests = list(dict.fromkeys(r for w in workloads for r in w.grid))
    WORK.mkdir()
    try:
        client = Client({})
        digests, outputs = {}, {}
        for request in requests:
            code, wall, _ = client.spawn(
                [sys.executable, "-m", "peakless"] + request.split()
            )
            out = client.out_path.read_bytes()
            err = client.err_path.read_text()
            if request == OVER_LIMIT:
                check(code == 2 and not out and DEFECT_MESSAGE in err, "over-limit defect")
                continue
            check(code == 0, f"{request}: exit {code}: {err}")
            outputs[request] = out.decode()
            check_output(request, outputs[request])
            digests[request] = {"exit": 0, "sha256": hashlib.sha256(out).hexdigest()}
            print(f"{wall:6.2f}s {len(out):>9} B  {request}", flush=True)
        if OVER_LIMIT in requests:
            digests[OVER_LIMIT] = pin_over_limit(OVER_LIMIT, outputs)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} requests")


if __name__ == "__main__":
    main()
