"""Cross-engine agreement suites behind the `verify` CLI command.

Every check pits independent computations of the same quantity against
each other: brute-force scan, automaton DP, ladder series, determinant
quotient, functional equation, recurrence.  Two routes to one sequence
are compared by `errors.check_agreement`, as in the `check_*` functions
of `counting` and `bounded` that hold every number the other subcommands
print; the suite runs the engines of both modules.  Any
other condition raises AssertionError.  A check returns nothing and fails only by raising, and
`run_checks` returns one record per check so the CLI can print a line
each and emit a machine-readable failure list.

quick: lengths <= 10, bounds <= 4, fixed examples for the path, sequence,
       determinant, height and continued-fraction routines, the kernel
       identities to order 30 and recurrence exactness to n = 500.
full:  lengths <= 14, bounds <= 7, recurrence exactness to n = 5000, the
       defining series identities to order 200, and the invariants of
       `bounded_count_table` to n = 60.
At both levels every height distribution up to the level's length is held
to the oracle's height census.  Only full runs `bounded_count_table`.
"""
import itertools
from fractions import Fraction

from . import bounded, counting, oracle, paths
from .errors import ResourceLimitError, check_agreement
from .series import Series

QUICK_N, QUICK_L = 10, 4
FULL_N, FULL_L = 14, 7


def check_path_predicates():
    profiles = (("", [0]), ("UUDD", [0, 1, 2, 1, 0]), ("UFDF", [0, 1, 1, 0, 0]))
    for path, want in profiles:
        got = paths.level_profile(path)
        check_agreement(("level_profile", "fixture"), got, want, f" on {path!r}")
    for path, expect in (("FFFF", 0), ("UUDD", 2), ("UFDF", 1)):
        if paths.height(path) != expect:
            raise AssertionError(f"height({path})")
    if not paths.has_peak("UUDD") or paths.has_peak("UFDF") or paths.has_peak(""):
        raise AssertionError("has_peak examples")


def check_automaton():
    cases = (("UFDF", True, 0), ("UDFF", False, None), ("DFFF", False, None))
    for path, accept, end in cases:
        got_accept, got_end = paths.automaton_accepts(path)
        if got_accept != accept or (end is not None and got_end != end):
            raise AssertionError(f"automaton on {path}")
    for n in range(8):
        for tup in itertools.product("FUD", repeat=n):
            path = "".join(tup)
            expect = paths.is_valid_prefix(path) and not paths.has_peak(path)
            if paths.automaton_accepts(path)[0] != expect:
                raise AssertionError(f"automaton mismatch on {path}")


def check_enumeration():
    check_agreement(
        ("enumerate_paths", "figure"),
        paths.enumerate_paths(4, paths.PathConstraints(peakless=True)),
        ["FFFF", "FUFD", "UFFD", "UFDF"],
        " on the peakless length-4 list",
    )
    if len(list(paths.enumerate_paths(4))) != 9:
        raise AssertionError("all Motzkin length-4 count")
    if list(paths.enumerate_paths(0)) != [""]:
        raise AssertionError("empty path enumeration")


def check_sequence_fixture():
    for name, got, want in (
        ("functional equation", counting.peakless_series(6), [1, 1, 1, 2, 4, 8, 17]),
        ("recurrence", counting.peakless_recurrence(6), [1, 1, 1, 2, 4, 8, 17]),
        ("Motzkin", counting.motzkin_numbers(6), [1, 1, 2, 4, 9, 21, 51]),
    ):
        check_agreement((name, "fixture"), got, want)


def check_five_way(n_limit, l_limit):
    lengths = range(n_limit + 1)
    series = counting.peakless_series(n_limit)
    recurrence = counting.peakless_recurrence(n_limit)
    check_agreement(("series", "recurrence"), series, recurrence)
    unbounded = paths.PathConstraints(peakless=True)
    brute = [oracle.brute_force_count(n, unbounded) for n in lengths]
    check_agreement(("brute force", "series"), brute, series)
    inactive = [bounded.bounded_count_dp(n, n // 2) for n in lengths]
    check_agreement(("bounded_count_dp", "series"), inactive, series, " at bound n/2")
    for l in range(l_limit + 1):
        capped = paths.PathConstraints(peakless=True, max_height=l)
        brute = [oracle.brute_force_count(n, capped) for n in lengths]
        for name, column in (
            ("bounded_column_dp", bounded.bounded_column_dp(l, n_limit)),
            ("bounded_series_cf", bounded.bounded_series_cf(l, n_limit).coeffs),
            ("bounded_series_det", bounded.bounded_series_det(l, n_limit).coeffs),
        ):
            check_agreement((name, "brute force"), column, brute, f" for bound={l}")


def check_end_levels(n_limit):
    for k in range(3):
        at_k = paths.PathConstraints(peakless=True, end_level=k)
        check_agreement(
            ("end_level_series", "brute force"),
            counting.end_level_series(k, n_limit),
            [oracle.brute_force_count(n, at_k) for n in range(n_limit + 1)],
            f" for end level {k}",
        )
    if counting.end_level_series(1, 2)[1] != 1:
        raise AssertionError("single-step end level")


def check_determinants():
    # D_1 = (1 - z)^2 (1 + z^2); the quotient for bound 1 is A(n, 1), n <= 4
    for name, got, want in (
        ("D_0", bounded.determinant_poly(0), (-1, 1, -1)),
        ("D_1", bounded.determinant_poly(1), (1, -2, 2, -2, 1)),
        ("E_0", bounded.strip_denominator_poly(0), (-1, 1)),
        ("det quotient", bounded.bounded_series_det(1, 4).coeffs, (1, 1, 1, 2, 4)),
    ):
        check_agreement((name, "fixture"), got, want)


def check_kernel_identities(order):
    f = Series(counting.peakless_series(order), order)
    one = Series.one(order)
    q = Series((1, -1, 1), order)
    if not ((f * f).shift(2) - q * f + one).is_zero():
        raise AssertionError("functional equation residual")
    s2 = counting.kernel_root_series(order)
    check_agreement(("kernel root", "fixture"), s2.coeffs[:4], (0, 1, 1, 1))
    if not counting.kernel_residual(s2).is_zero():
        raise AssertionError("kernel residual")
    hk = [Series(counting.end_level_series(k, order), order) for k in range(7)]
    qbar = Series((-1, 1, -1), order)
    for k in range(2, 7):
        lhs = hk[k].shift(1) + qbar * hk[k - 1] + hk[k - 2].shift(1)
        if not lhs.is_zero():
            raise AssertionError(f"three-term end-level identity at k={k}")


def check_height_stats(n_limit):
    stats = bounded.height_distribution(4)
    if stats.distribution != (1, 3) or stats.expected_height != Fraction(3, 4):
        raise AssertionError(f"n=4 stats {stats}")
    if bounded.height_distribution(0).expected_height != 0:
        raise AssertionError("n=0 stats")
    lengths = range(n_limit + 1)
    check_agreement(
        ("height_distribution", "oracle"),
        [bounded.height_distribution(n).distribution for n in lengths],
        [tuple(oracle.height_counts(n, peakless=True)) for n in lengths],
    )
    heights = oracle.height_counts(4, peakless=False)
    if heights != [1, 7, 1]:
        raise AssertionError(f"length-4 height multiset {heights}")


def check_pretty_cf():
    orders = [counting.pretty_cf_agreement(d, 40) for d in range(1, 11)]
    if orders[0] != 1:
        raise AssertionError("depth-1 agreement")
    if any(a > b for a, b in zip(orders, orders[1:])):
        raise AssertionError(f"agreement not monotone: {orders}")
    if orders[6] < 7:
        raise AssertionError(f"depth-7 agreement {orders[6]}")


def check_recurrence_exactness(n_limit):
    values = counting.peakless_recurrence(n_limit)  # raises on inexact division
    if values[6] != 17:
        raise AssertionError("recurrence value drift")


def check_table_invariants(n_limit):
    series = counting.peakless_series(n_limit)
    columns = bounded.bounded_count_table(n_limit, n_limit // 2)
    for n, cells in enumerate(zip(*columns)):
        if cells[0] != 1:
            raise AssertionError(f"A({n}, 0) != 1")
        for l in range(1, len(cells)):
            if cells[l] < cells[l - 1]:
                raise AssertionError(f"A({n}, l) decreasing at l={l}")
        for l in range((n + 1) // 2, len(cells)):
            if cells[l] != series[n]:
                raise AssertionError(f"A({n}, {l}) != m({n}) past the active range")


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
    it: ResourceLimitError, OracleLimitError among it, propagates.
    """
    checks = checks_for_level(level)
    paths.check_oracle_length(0)  # a malformed PEAKLESS_ORACLE_CAP exits 2
    results = []
    for name, fn in checks:
        ok, detail = True, ""
        try:
            fn()
        except ResourceLimitError:
            raise  # a budget stopped the suite: exit 3, not a failed check
        except Exception as exc:  # a failed comparison or a crashing engine
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"check": name, "ok": ok, "detail": detail})
    return results
