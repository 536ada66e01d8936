"""Cross-engine agreement suites behind the `verify` CLI command.

Every check pits independent computations of the same quantity against
each other: brute-force scan, automaton DP, ladder series, determinant
quotient, functional equation, recurrence.  `run_checks` returns one
record per check so the CLI can print a line each and emit a
machine-readable failure list.

quick: lengths <= 10, bounds <= 4, plus at least one example for every
       public counting and path operation.
full:  lengths <= 14, bounds <= 7, recurrence exactness to n = 5000, and
       the defining series identities to order 200.
At both levels every height distribution up to the level's length is held
to the oracle's height census.
"""
import itertools
from fractions import Fraction

from . import counting, oracle, paths
from .errors import OracleLimitError, ResourceLimitError
from .series import Series

QUICK_N, QUICK_L = 10, 4
FULL_N, FULL_L = 14, 7


def _fail(detail):
    return False, detail


def _ok():
    return True, ""


def check_path_predicates():
    if paths.level_profile("") != [0]:
        return _fail("empty profile")
    if paths.level_profile("UUDD") != [0, 1, 2, 1, 0]:
        return _fail("UUDD profile")
    if paths.level_profile("UFDF") != [0, 1, 1, 0, 0]:
        return _fail("UFDF profile")
    for path, expect in (("FFFF", 0), ("UUDD", 2), ("UFDF", 1)):
        if paths.height(path) != expect:
            return _fail(f"height({path})")
    if not paths.has_peak("UUDD") or paths.has_peak("UFDF") or paths.has_peak(""):
        return _fail("has_peak examples")
    return _ok()


def check_automaton():
    cases = (("UFDF", True, 0), ("UDFF", False, None), ("DFFF", False, None))
    for path, accept, end in cases:
        got_accept, got_end = paths.automaton_accepts(path)
        if got_accept != accept or (end is not None and got_end != end):
            return _fail(f"automaton on {path}")
    for n in range(8):
        for tup in itertools.product("FUD", repeat=n):
            path = "".join(tup)
            expect = paths.is_valid_prefix(path) and not paths.has_peak(path)
            if paths.automaton_accepts(path)[0] != expect:
                return _fail(f"automaton mismatch on {path}")
    return _ok()


def check_enumeration():
    figure = list(paths.enumerate_paths(4, paths.PathConstraints(peakless=True)))
    if figure != ["FFFF", "FUFD", "UFFD", "UFDF"]:
        return _fail(f"peakless length-4 list: {figure}")
    if len(list(paths.enumerate_paths(4))) != 9:
        return _fail("all Motzkin length-4 count")
    if list(paths.enumerate_paths(0)) != [""]:
        return _fail("empty path enumeration")
    return _ok()


def check_sequence_fixture():
    expect = [1, 1, 1, 2, 4, 8, 17]
    if counting.peakless_series(6) != expect:
        return _fail("functional-equation prefix")
    if counting.peakless_recurrence(6) != expect:
        return _fail("recurrence prefix")
    if counting.motzkin_numbers(6) != [1, 1, 2, 4, 9, 21, 51]:
        return _fail("Motzkin prefix")
    return _ok()


def check_five_way(n_limit, l_limit):
    series = counting.peakless_series(n_limit)
    recurrence = counting.peakless_recurrence(n_limit)
    if series != recurrence:
        return _fail("series != recurrence")
    dp = {l: counting.bounded_column_dp(l, n_limit) for l in range(l_limit + 1)}
    cf = {l: counting.bounded_series_cf(l, n_limit) for l in range(l_limit + 1)}
    det = {l: counting.bounded_series_det(l, n_limit) for l in range(l_limit + 1)}
    for n in range(n_limit + 1):
        unbounded = oracle.brute_force_count(
            n, paths.PathConstraints(peakless=True)
        )
        if unbounded != series[n]:
            return _fail(f"m({n}): brute {unbounded} != series {series[n]}")
        half = n // 2
        if counting.bounded_count_dp(n, half) != series[n]:
            return _fail(f"dp at inactive bound, n={n}")
        for l in range(l_limit + 1):
            want = oracle.brute_force_count(
                n, paths.PathConstraints(peakless=True, max_height=l)
            )
            got_dp = dp[l][n]
            got_cf = cf[l][n]
            if want != got_dp:
                return _fail(f"bounded_column_dp(l={l})[{n}]: {got_dp} != {want}")
            if want != got_cf:
                return _fail(f"bounded_series_cf(l={l})[{n}]: {got_cf} != {want}")
            if det[l][n] != want:
                return _fail(f"bounded_series_det(l={l})[{n}]: {det[l][n]} != {want}")
    return _ok()


def check_end_levels(n_limit):
    for k in range(3):
        engine = counting.end_level_series(k, n_limit)
        for n in range(n_limit + 1):
            want = oracle.brute_force_count(
                n, paths.PathConstraints(peakless=True, end_level=k)
            )
            if engine[n] != want:
                return _fail(f"end level {k}, n={n}: {engine[n]} != {want}")
    if counting.end_level_series(1, 2)[1] != 1:
        return _fail("single-step end level")
    return _ok()


def check_determinants():
    if counting.determinant_poly(0) != (-1, 1, -1):
        return _fail("D_0")
    if counting.determinant_poly(1) != (1, -2, 2, -2, 1):
        return _fail("D_1 != (1-z)^2 (1+z^2)")
    if counting.strip_denominator_poly(0) != (-1, 1):
        return _fail("E_0")
    prefix = counting.bounded_series_det(1, 4).coeffs
    if prefix != (1, 1, 1, 2, 4):
        return _fail(f"det quotient prefix {prefix}")
    return _ok()


def check_kernel_identities(order):
    f = Series(counting.peakless_series(order), order)
    one = Series.one(order)
    q = Series((1, -1, 1), order)
    residual = (f * f).shift(2) - q * f + one
    if not residual.is_zero():
        return _fail("functional equation residual")
    s2 = counting.kernel_root_series(order)
    if s2[0] != 0 or s2.coeffs[1:4] != (1, 1, 1):
        return _fail("kernel root prefix")
    if not counting.kernel_residual(s2).is_zero():
        return _fail("kernel residual")
    hk = [Series(counting.end_level_series(k, order), order) for k in range(7)]
    qbar = Series((-1, 1, -1), order)
    for k in range(2, 7):
        lhs = hk[k].shift(1) + qbar * hk[k - 1] + hk[k - 2].shift(1)
        if not lhs.is_zero():
            return _fail(f"three-term end-level identity at k={k}")
    return _ok()


def check_height_stats(n_limit):
    stats = counting.height_distribution(4)
    if stats.distribution != (1, 3) or stats.expected_height != Fraction(3, 4):
        return _fail(f"n=4 stats {stats}")
    if counting.height_distribution(0).expected_height != 0:
        return _fail("n=0 stats")
    for n in range(n_limit + 1):
        engine = list(counting.height_distribution(n).distribution)
        want = oracle.height_counts(n, peakless=True)
        if engine != want:
            return _fail(f"height distribution n={n}: {engine} != oracle {want}")
    heights = oracle.height_counts(4, peakless=False)
    if heights != [1, 7, 1]:
        return _fail(f"length-4 height multiset {heights}")
    return _ok()


def check_pretty_cf():
    orders = [counting.pretty_cf_agreement(d, 40) for d in range(1, 11)]
    if orders[0] != 1:
        return _fail("depth-1 agreement")
    if any(a > b for a, b in zip(orders, orders[1:])):
        return _fail(f"agreement not monotone: {orders}")
    if orders[6] < 7:
        return _fail(f"depth-7 agreement {orders[6]}")
    return _ok()


def check_recurrence_exactness(n_limit):
    values = counting.peakless_recurrence(n_limit)  # raises on inexact division
    if values[6] != 17:
        return _fail("recurrence value drift")
    return _ok()


def check_table_invariants(n_limit):
    series = counting.peakless_series(n_limit)
    prev = None
    # rows run n-major, l = 0..n_limit // 2 within each n
    for n, l, val in counting.bounded_count_table(n_limit, n_limit // 2):
        if l == 0 and val != 1:
            return _fail(f"A({n}, 0) != 1")
        if l and val < prev:
            return _fail(f"A({n}, l) decreasing at l={l}")
        prev = val
        if l >= (n + 1) // 2 and val != series[n]:
            return _fail(f"A({n}, {l}) != m({n}) past the active range")
    return _ok()


def checks_for_level(level):
    if level == "quick":
        n, l = QUICK_N, QUICK_L
        extra = [
            ("kernel_identities", lambda: check_kernel_identities(30)),
            ("recurrence_exactness", lambda: check_recurrence_exactness(500)),
        ]
    elif level == "full":
        n, l = FULL_N, FULL_L
        extra = [
            ("kernel_identities", lambda: check_kernel_identities(200)),
            ("recurrence_exactness", lambda: check_recurrence_exactness(5000)),
            ("table_invariants", lambda: check_table_invariants(60)),
        ]
    else:
        raise ValueError(f"unknown verify level {level!r}")
    return [
        ("path_predicates", check_path_predicates),
        ("automaton", check_automaton),
        ("enumeration", check_enumeration),
        ("sequence_fixture", check_sequence_fixture),
        ("five_way_agreement", lambda: check_five_way(n, l)),
        ("end_level_counts", lambda: check_end_levels(min(n, 10))),
        ("determinant_fixtures", check_determinants),
        ("height_stats", lambda: check_height_stats(n)),
        ("pretty_cf", check_pretty_cf),
    ] + extra


def run_checks(level="quick"):
    """Run the suite; returns [{"check", "ok", "detail"}, ...] in order.

    A check that raises counts as failed, except when a cap or budget stops
    it: OracleLimitError and ResourceLimitError propagate.
    """
    checks = checks_for_level(level)
    paths.check_oracle_length(0)  # a malformed PEAKLESS_ORACLE_CAP exits 2
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except (OracleLimitError, ResourceLimitError):
            raise  # a budget stopped the suite: exit 3, not a failed check
        except Exception as exc:  # a crashing engine is a failing check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"check": name, "ok": ok, "detail": detail})
    return results
