"""Cross-engine agreement suites behind the `verify` CLI command.

Every check pits independent routes to one quantity against each other:
brute force, automaton, ladder, strip family, middle join, functional
equation, recurrence, end-level stream, height distribution, and fixed
values from the paper's examples.  Each comparison goes through
`errors.check_agreement`, as in the `check_*` functions of `counting` and
`bounded`, and names an engine by the same words they use, so a failure
names both routes and the first mismatching indices: two engines, an
engine and a `fixture`, a residual series and `zero`, the strip family and
its Chebyshev form, the continued fraction's agreement orders and its
numerators' valuation sums, a recurrence remainder and exact division.  A
check returns nothing and fails only by raising; `run_checks` returns one
record per check so the CLI can print a line each and emit a
machine-readable failure list.

Each check reads a family once, from the same streams the CLI prints: the
five-way agreement one `bounded.bounded_count_table` per column engine
(columns 0..l) and one oracle height census per length (each bound's
brute-force count is a prefix sum of it), the determinant check one
`bounded.strip_family` run (D_{-1}..D_l and the E_0 fixture), the
end-level and kernel checks one `counting.end_level_stream` walk each
(h_0..h_2, and h_0..h_6 with F = h_0), and the continued-fraction check
one `counting.pretty_cf_agreements` call, one functional-equation run and
one convergent run for all ten depths.  So a check's engine work grows
linearly in its bound; only the oracle's half scans grow like 3^(n/2).

The sizes of both levels live in `SIZES`: path length and height bound of
the brute-force comparisons (every height distribution up to that length
is held to the oracle's height census; the strip run meets its Chebyshev
form up to that bound), the order of the kernel identities, the length of
the recurrence's exactness run, and the length of the `bounded_count_table`
invariants, which only full runs.
"""
import itertools
import math
from fractions import Fraction

from . import bounded, counting, oracle, paths
from .errors import ResourceLimitError, check_agreement
from .series import Series, poly_mul, poly_neg, poly_sub

# level -> (length, bound, kernel order, recurrence length, table length)
SIZES = {"quick": (10, 4, 30, 500, None), "full": (14, 7, 200, 5000, 60)}


def _fixtures(*rows):
    for route, computed, expected in rows:
        check_agreement((route, "fixture"), computed, expected)


def _vanishes(route, residual, where=""):
    zero = [0] * len(residual.coeffs)
    check_agreement((route, "zero"), residual.coeffs, zero, where)


def check_path_predicates():
    words = ("", "UUDD", "UFDF")
    _fixtures(
        (
            "level_profile",
            [paths.level_profile(w) for w in words],
            [[0], [0, 1, 2, 1, 0], [0, 1, 1, 0, 0]],
        ),
        ("height", [paths.height(w) for w in ("FFFF", "UUDD", "UFDF")], [0, 2, 1]),
        ("has_peak", [paths.has_peak(w) for w in words], [False, True, False]),
    )


def check_automaton():
    runs = [paths.automaton_accepts(w) for w in ("UFDF", "UDFF", "DFFF")]
    _fixtures(
        ("automaton", [accepted for accepted, _ in runs], [True, False, False]),
        ("automaton end level", [runs[0][1]], [0]),
    )
    words = ["".join(t) for n in range(8) for t in itertools.product("FUD", repeat=n)]
    check_agreement(
        ("automaton", "predicates"),
        [(w, paths.automaton_accepts(w)[0]) for w in words],
        [(w, paths.is_valid_prefix(w) and not paths.has_peak(w)) for w in words],
    )


def check_enumeration():
    peakless = paths.PathConstraints(peakless=True)
    _fixtures(
        (
            "peakless enumerate_paths(4)",
            paths.enumerate_paths(4, peakless),
            ["FFFF", "FUFD", "UFFD", "UFDF"],
        ),
        ("len(enumerate_paths(4))", [len(list(paths.enumerate_paths(4)))], [9]),
        ("enumerate_paths(0)", paths.enumerate_paths(0), [""]),
    )


def check_sequence_fixture():
    _fixtures(
        ("functional equation", counting.peakless_series(6), [1, 1, 1, 2, 4, 8, 17]),
        ("recurrence", counting.peakless_recurrence(6), [1, 1, 1, 2, 4, 8, 17]),
        ("Motzkin", counting.motzkin_numbers(6), [1, 1, 2, 4, 9, 21, 51]),
    )


def check_five_way(n_limit, l_limit):
    lengths = range(n_limit + 1)
    series = counting.peakless_series(n_limit)
    recurrence = counting.peakless_recurrence(n_limit)
    check_agreement(("functional equation", "recurrence"), series, recurrence)
    census = [oracle.height_counts(n, peakless=True) for n in lengths]
    check_agreement(("brute force", "functional equation"), map(sum, census), series)
    inactive = [bounded.bounded_counts_dp(n, [n // 2])[0] for n in lengths]
    names = ("middle join", "functional equation")
    check_agreement(names, inactive, series, " at bound n/2")
    tables = [
        (name, bounded.bounded_count_table(n_limit, l_limit, method))
        for method, name in bounded.COLUMN_NAMES.items()
    ]
    for l in range(l_limit + 1):
        brute = [sum(counts[: l + 1]) for counts in census]
        for name, columns in tables:
            check_agreement((name, "brute force"), columns[l], brute, f" for bound={l}")


def check_end_levels(n_limit):
    names = ("end-level stream", "brute force")
    for k, h in zip(range(3), counting.end_level_stream(n_limit)):
        brute = [sum(oracle.height_counts(n, True, k)) for n in range(n_limit + 1)]
        check_agreement(names, h.coeffs, brute, f" for end level {k}")


def check_determinants(bound):
    # the strip run D_{-1}..D_bound against its Chebyshev form, a sum over
    # powers of S = z - z^2 - 1 that shares no loop with the run:
    # D_l = sum_k C(l + 1 - k, k) S^(l + 1 - 2k) (-z^2)^k, of degree 2l + 2
    powers = [(1,)]
    for _ in range(bound + 1):
        powers.append(poly_mul(powers[-1], bounded.STRIP_DIAGONAL))
    chebyshev = []
    for l in range(-1, bound + 1):
        d = [0] * (2 * l + 3)
        for k in range((l + 1) // 2 + 1):
            c = math.comb(l + 1 - k, k) * (-1) ** k
            for i, x in enumerate(powers[l + 1 - 2 * k], 2 * k):
                d[i] += c * x
        chebyshev.append(tuple(d))
    run = list(itertools.islice(bounded.strip_family(), bound + 2))
    names = ("strip family", "Chebyshev form")
    check_agreement(names, [d for d, _ in run], chebyshev, start=-1, index="l")
    # E_0 = z - 1; the quotient for bound 1 is A(n, 1), n <= 4
    _fixtures(
        ("E_0", run[1][1], (-1, 1)),
        ("det quotient", bounded.bounded_series_det(1, 4), (1, 1, 1, 2, 4)),
    )


def check_kernel_identities(order):
    hk = list(itertools.islice(counting.end_level_stream(order), 7))
    f = hk[0]
    q = Series((1, -1, 1), order)
    residual = (f * f).shift(2) - q * f + Series((1,), order)
    _vanishes("functional equation residual", residual)
    qbar = Series((-1, 1, -1), order)
    for k in range(2, 7):
        residual = hk[k].shift(1) + qbar * hk[k - 1] + hk[k - 2].shift(1)
        _vanishes("end-level residual", residual, f" at k={k}")


def check_height_stats(n_limit):
    at_4, at_0 = bounded.height_distribution(4), bounded.height_distribution(0)
    means = [at_4.expected_height, at_0.expected_height]
    _fixtures(
        ("height_distribution(4)", at_4.distribution, (1, 3)),
        ("expected heights", means, [Fraction(3, 4), 0]),
        ("all-path height census", oracle.height_counts(4, peakless=False), [1, 7, 1]),
    )
    lengths = range(n_limit + 1)
    check_agreement(
        ("height distribution", "brute force"),
        [bounded.height_distribution(n).distribution for n in lengths],
        [tuple(oracle.height_counts(n, peakless=True)) for n in lengths],
    )


def check_pretty_cf():
    # F = 1 + lead/W, where one period p_1..p_k fixes W = 1 - p_1/(1 - ... -
    # p_k/W): t -> 1 - p/t maps (num, den) by [[1, -p], [1, 0]], and the
    # period's product [[a, b], [c, d]] gives c W^2 + (d - a) W - b = 0
    lead = counting.PRETTY_CF_LEAD
    a, b, c, d = (1,), (0,), (0,), (1,)
    for p in counting.PRETTY_CF_PERIOD:
        a, b = poly_sub(a, poly_neg(b)), poly_neg(poly_mul(a, p))
        c, d = poly_sub(c, poly_neg(d)), poly_neg(poly_mul(c, p))
    # that times (F - 1)^2 under W = lead/(F - 1), by powers F^0, F^1, F^2,
    # is z(1 - z) times the functional equation 1 - (1 - z + z^2) F + z^2 F^2
    e = poly_mul(poly_sub(d, a), lead)
    in_f = [
        poly_sub(poly_sub(poly_mul(c, poly_mul(lead, lead)), e), b),
        poly_sub(e, poly_mul((-2,), b)),
        poly_neg(b),
    ]
    equation = [poly_mul((0, 1, -1), q) for q in ((1,), (-1, 1, -1), (0, 0, 1))]
    check_agreement(
        ("period fixed point", "functional equation"),
        in_f,
        equation,
        " in the coefficient of F^k",
        index="k",
    )
    # depth d agrees with F up to the valuation sum v_1 + ... + v_{d+1} - 1
    # of its first d + 1 numerators, lead then period cycling
    depths = range(1, 11)
    numerators = itertools.chain([lead], itertools.cycle(counting.PRETTY_CF_PERIOD))
    valuations = [
        next(i for i, x in enumerate(q) if x)
        for q in itertools.islice(numerators, len(depths) + 1)
    ]
    sums = [total - 1 for total in itertools.accumulate(valuations)][1:]
    orders = counting.pretty_cf_agreements(len(depths), 40)
    check_agreement(
        ("agreement orders", "valuation sum"), orders, sums, start=1, index="depth"
    )


def check_recurrence_exactness(n_limit):
    counting.peakless_recurrence(n_limit)  # a remainder is a disagreement


def check_table_invariants(n_limit):
    series = counting.peakless_series(n_limit)
    columns = bounded.bounded_count_table(n_limit, n_limit // 2, "cf")
    check_agreement(("A(n, 0)", "one"), columns[0], [1] * len(columns[0]))
    for n, cells in enumerate(zip(*columns)):
        where = f" in row n={n}"
        check_agreement(("A(n, l)", "sorted"), cells, sorted(cells), where, index="l")
        top = (n + 1) // 2  # no path of length n rises above this bound
        past = cells[top:]
        expected = [series[n]] * len(past)
        check_agreement(("A(n, l)", "m(n)"), past, expected, where, top, index="l")


def checks_for_level(level):
    if level not in SIZES:
        raise ValueError(f"unknown verify level {level!r}")
    n, l, order, recurrence, table = SIZES[level]
    checks = [
        ("path_predicates", check_path_predicates),
        ("automaton", check_automaton),
        ("enumeration", check_enumeration),
        ("sequence_fixture", check_sequence_fixture),
        ("five_way_agreement", lambda: check_five_way(n, l)),
        ("end_level_counts", lambda: check_end_levels(min(n, 10))),
        ("determinant_fixtures", lambda: check_determinants(l)),
        ("height_stats", lambda: check_height_stats(n)),
        ("pretty_cf", check_pretty_cf),
        ("kernel_identities", lambda: check_kernel_identities(order)),
        ("recurrence_exactness", lambda: check_recurrence_exactness(recurrence)),
    ]
    if table is not None:
        checks.append(("table_invariants", lambda: check_table_invariants(table)))
    return checks


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
