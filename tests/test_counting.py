import decimal
import itertools
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from peakless import asymptotics, bounded, counting, oracle, paths
from peakless import series as series_module
from peakless.errors import EngineDisagreement, ResourceLimitError
from peakless.paths import PathConstraints
from peakless.series import (
    Series,
    poly_divide_series,
    poly_mul,
    poly_neg,
    poly_sub,
)

DATA = Path(__file__).parent / "data" / "a004148_prefix.txt"

# m(0)..m(16); terms past 6 are regenerated from the oracle in the fixture test
A004148 = [1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423, 978, 2283, 5373, 12735, 30372, 72832]

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]

# counts of height <= 1 paths; the sequence first misses m(n) at n = 5
HEIGHT_LE_1 = [1, 1, 1, 2, 4, 7, 12, 21, 37, 65, 114, 200, 351, 616, 1081]


def read_fixture():
    rows = []
    for line in DATA.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, count, source = line.split()
        rows.append((int(n), int(count), source))
    return rows


def test_fixture_file_against_engines_and_oracle():
    rows = read_fixture()
    assert [n for n, _, _ in rows] == list(range(17))
    series = counting.peakless_series(16)
    recurrence = counting.peakless_recurrence(16)
    for n, count, source in rows:
        assert series[n] == count
        assert recurrence[n] == count
        if source == "oracle":
            regenerated = oracle.brute_force_count(n, PathConstraints(peakless=True))
            assert regenerated == count, f"oracle regeneration differs at n={n}"


def test_motzkin_numbers():
    assert counting.motzkin_numbers(10) == MOTZKIN
    for n in range(11):
        assert oracle.brute_force_count(n) == MOTZKIN[n]
    with pytest.raises(ValueError, match="nonnegative"):
        counting.motzkin_numbers(-1)


def test_peakless_series_prefix():
    assert counting.peakless_series(6) == [1, 1, 1, 2, 4, 8, 17]
    assert counting.peakless_series(0) == [1]
    assert counting.peakless_series(16) == A004148


def test_peakless_series_is_a_fresh_list():
    want = counting.peakless_recurrence(30)
    first = counting.peakless_series(30)
    first[5] = -1
    first.append(0)
    assert counting.peakless_series(30) == want
    assert counting.peakless_series(40)[:31] == want
    with pytest.raises(ValueError):
        counting.peakless_series(-1)


def _closed_form(n):
    # m(n) = sum_k C(n-k, k) C(n-k-1, k) / (k+1) for n >= 1
    return sum(comb(n - k, k) * comb(n - k - 1, k) // (k + 1) for k in range(n // 2 + 1))


def test_peakless_series_matches_closed_form():
    series = counting.peakless_series(1000)
    for n in (1, 2, 7, 99, 500, 999, 1000):
        assert series[n] == _closed_form(n), n


def test_closed_form_updates_term_by_term():
    # the term-ratio update against the sum of binomials, and m(0) = 1
    values = counting.peakless_recurrence(300)
    assert [counting.peakless_closed_form(n) for n in range(301)] == values
    for n in (1, 2, 3, 999, 1000):
        assert counting.peakless_closed_form(n) == _closed_form(n), n
    for n in (-1, -5):
        with pytest.raises(ValueError, match="nonnegative"):
            counting.peakless_closed_form(n)


def test_closed_form_at_the_far_end():
    # the Decimal terms come back as an int without a decimal string, so
    # m(10305), 4303 digits, needs no lift of the default int-to-str limit;
    # there the binomial sum costs seconds, and the int recurrence, which
    # shares no code with the closed form, is the reference
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, which only cli.main lifts
    try:
        for n, reference in (
            (1000, _closed_form(1000)),
            (4000, _closed_form(4000)),
            (10305, counting.peakless_recurrence(10305)[-1]),
        ):
            value = counting.peakless_closed_form(n)
            assert type(value) is int and value == reference, n
    finally:
        sys.set_int_max_str_digits(limit)


def test_functional_equation_residual():
    order = 64
    f = Series(counting.peakless_series(order), order)
    residual = (f * f).shift(2) - Series((1, -1, 1), order) * f + Series((1,), order)
    assert residual.coeffs == (0,) * (order + 1)


def test_recurrence_matches_series():
    assert counting.peakless_recurrence(1000) == counting.peakless_series(1000)
    for n in (0, 1, 2, 3):
        assert counting.peakless_recurrence(n) == A004148[: n + 1]
    assert counting.peakless_recurrence(4)[4] == 4  # (9*2 + 3*1 + 3*1 - 0) / 6


def test_recurrence_exactness_and_failure():
    counting.peakless_recurrence(1500)  # raises if any division is inexact
    # m(3) = 3 leaves 33 / 6 at the step to m(4), on ints and Decimals alike
    message = r"first n=4: recurrence remainder 3, exact division 0$"
    for seeds in ((1, 1, 1, 3), map(decimal.Decimal, (1, 1, 1, 3))):
        with pytest.raises(EngineDisagreement, match=message):
            counting._extend_recurrence(seeds, 10)


def test_decimal_recurrence_is_the_int_one():
    ints = counting.peakless_recurrence(1500)
    decimals = counting.peakless_decimals(1500)
    assert all(type(v) is int for v in ints)
    assert all(type(v) is decimal.Decimal for v in decimals)
    assert decimals == ints
    assert [str(v) for v in decimals] == [str(v) for v in ints]
    assert counting.peakless_decimals(0) == [1]
    with pytest.raises(ValueError):
        counting.peakless_decimals(-1)


def test_exact_decimal_context_raises_instead_of_rounding():
    ctx = counting.EXACT_DECIMAL
    assert ctx.prec == decimal.MAX_PREC
    assert (ctx.Emax, ctx.Emin) == (decimal.MAX_EMAX, decimal.MIN_EMIN)
    assert ctx.traps[decimal.Inexact] and ctx.traps[decimal.Rounded]
    # the same recurrence with too few digits raises, it never rounds
    tiny = ctx.copy()
    tiny.prec = 5
    seeds = map(decimal.Decimal, counting.PEAKLESS_INITIAL)
    with decimal.localcontext(tiny), pytest.raises(decimal.Inexact):
        counting._extend_recurrence(seeds, 40)


def test_end_level_series():
    # element k of the end-level stream counts the walks that end at level k
    hk = list(itertools.islice(counting.end_level_stream(10), 3))
    assert list(hk[0].coeffs) == counting.peakless_series(10)
    assert hk[1].coeffs[1] == 1  # the single path "U"
    for k, engine in enumerate(hk):
        for n in range(11):
            want = oracle.brute_force_count(
                n, PathConstraints(peakless=True, end_level=k)
            )
            assert engine.coeffs[n] == want


def test_end_level_stream_is_the_power_chain(monkeypatch):
    # h_k = z^k F^{k+1}, against a chain of products written out here; one
    # functional-equation run and one product per step past h_0
    for order in range(41):
        f = Series(counting.peakless_series(order), order)
        chain = [f]
        for _ in range(6):
            chain.append(chain[-1] * f)
        hk = list(itertools.islice(counting.end_level_stream(order), 7))
        want = [power.shift(k).coeffs for k, power in enumerate(chain)]
        assert [h.coeffs for h in hk] == want, order
    calls = {"series": 0, "mul": 0}
    real_series, real_mul = counting.peakless_series, Series.__mul__

    def series(n_max):
        calls["series"] += 1
        return real_series(n_max)

    def mul(self, other):
        calls["mul"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(counting, "peakless_series", series)
    monkeypatch.setattr(Series, "__mul__", mul)
    list(itertools.islice(counting.end_level_stream(200), 7))
    assert calls == {"series": 1, "mul": 6}


def test_three_term_end_level_identity():
    # z h_k + (z - z^2 - 1) h_{k-1} + z h_{k-2} = 0 for k >= 2
    order = 30
    hk = list(itertools.islice(counting.end_level_stream(order), 7))
    qbar = Series((-1, 1, -1), order)
    for k in range(2, 7):
        out = hk[k].shift(1) + qbar * hk[k - 1] + hk[k - 2].shift(1)
        assert out.coeffs == (0,) * (order + 1), k


def test_kernel_root():
    u = Series(counting.peakless_series(50), 50).shift(1)  # z F
    assert u.coeffs[0] == 0
    assert u.coeffs[1:4] == (1, 1, 1)
    # z u^2 + (z - z^2 - 1) u + z
    kernel = (u * u).shift(1) + Series((-1, 1, -1), 50) * u + Series((0, 1), 50)
    assert kernel.coeffs == (0,) * 51


def _ladder_column(bound, order):
    # A(0..order, bound), column `bound` of the ladder's table
    return bounded.bounded_count_table(order, bound, "cf")[bound]


def test_bounded_cf_fixtures():
    assert _ladder_column(0, 8) == (1,) * 9
    assert _ladder_column(1, 14) == tuple(HEIGHT_LE_1)
    assert _ladder_column(1, 4)[4] == 4
    with pytest.raises(ValueError):
        _ladder_column(-1, 4)


def test_bound_becomes_inactive():
    series = counting.peakless_series(20)
    for n in range(21):
        assert _ladder_column(n // 2, n)[n] == series[n]


def test_first_length_where_height_bound_bites():
    # located by brute force: the first peakless path of height 2 has length 5
    series = counting.peakless_series(10)
    first = next(
        n
        for n in range(11)
        if oracle.brute_force_count(n, PathConstraints(peakless=True, max_height=1))
        != series[n]
    )
    assert first == 5
    assert _ladder_column(1, 5)[5] == series[5] - 1 == 7


def _permutation_determinant(matrix):
    # independent oracle: Leibniz expansion with polynomial arithmetic
    size = len(matrix)
    total = (0,)
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j]
        )
        term = (1,)
        for row in range(size):
            term = poly_mul(term, matrix[row][perm[row]])
        total = poly_sub(total, term if inversions % 2 else poly_neg(term))
    return total


def _tridiagonal(size, last_diagonal):
    qbar = (-1, 1, -1)  # z - z^2 - 1
    z = (0, 1)
    zero = (0,)
    matrix = []
    for i in range(size):
        row = []
        for j in range(size):
            if i == j:
                row.append(last_diagonal if i == size - 1 else qbar)
            elif abs(i - j) == 1:
                row.append(z)
            else:
                row.append(zero)
        matrix.append(row)
    return matrix


def _strip_run(l_max):
    # {l: (D_l, E_l)} for l = -1..l_max, from one run of the strip family
    return dict(zip(range(-1, l_max + 1), bounded.strip_family()))


def test_determinant_fixtures():
    strip = _strip_run(40)
    assert strip[-1] == ((1,), (1,))
    assert strip[0][0] == (-1, 1, -1)  # z - z^2 - 1
    # (1 - z)^2 (1 + z^2)
    assert strip[1][0] == poly_mul(poly_mul((1, -1), (1, -1)), (1, 0, 1))
    d2_step = poly_sub(
        poly_mul((-1, 1, -1), strip[1][0]), poly_mul((0, 0, 1), strip[0][0])
    )
    assert strip[2][0] == d2_step
    # E_l = D_l + z^2 D_{l-1} (expand the ceiling row z - 1 = S + z^2), and
    # D_l matches its Chebyshev form in S = z - z^2 - 1 at 2l + 3 integer
    # points, as many as pin a polynomial of degree 2l + 2
    for l in range(40):
        (d, e), before = strip[l], strip[l - 1][0]
        assert e == poly_sub(d, poly_mul((0, 0, -1), before)), l
        for x in range(-l - 1, l + 2):
            s, ks = x - x * x - 1, range((l + 1) // 2 + 1)
            form = sum(
                comb(l + 1 - k, k) * s ** (l + 1 - 2 * k) * (-x * x) ** k for k in ks
            )
            assert sum(c * x**i for i, c in enumerate(d)) == form, (l, x)


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4])
def test_determinant_families_against_leibniz_oracle(bound):
    d, e = _strip_run(bound)[bound]
    plain = _tridiagonal(bound + 1, (-1, 1, -1))
    assert d == _permutation_determinant(plain)
    corrected = _tridiagonal(bound + 1, (-1, 1))  # ceiling row: z - 1
    assert e == _permutation_determinant(corrected)


def test_det_series_fixtures():
    assert bounded.bounded_series_det(1, 4) == (1, 1, 1, 2, 4)
    assert bounded.bounded_series_det(5, 40) == _ladder_column(5, 40)
    assert bounded.bounded_series_det(0, 10) == _ladder_column(0, 10)
    # E_l(0) = (-1)^{l+1}, so every quotient -E_{l-1}/E_l starts at +1
    assert all(bounded.bounded_series_det(l, 40)[0] == 1 for l in range(41))
    with pytest.raises(ValueError):
        bounded.bounded_series_det(-1, 10)


def test_bounds_past_half_the_order_are_clamped():
    # a peakless path of length n is at most (n - 1) // 2 high; at an odd
    # order a clamp one level too low would drop the highest paths
    series = tuple(counting.peakless_series(41))
    assert bounded.bounded_count_table(41, 1000, "cf")[1000] == series
    assert bounded.bounded_series_det(10**8, 41) == series


def test_det_series_truncates_the_strip_family():
    # a bound past order // 2 is read as order // 2: the quotient equals the
    # one of the unclamped E_40 / E_39 and, at bound 1500, the DP column
    order = 30
    strip = _strip_run(40)
    full = poly_divide_series(poly_neg(strip[39][1]), strip[40][1], order)
    assert bounded.bounded_series_det(40, order) == full.coeffs
    dp = bounded.bounded_column_dp(1500, 200)
    assert bounded.bounded_series_det(1500, 200) == dp


def test_det_series_division_contract():
    order = 30
    strip = _strip_run(1)
    e0, e1 = strip[0][1], strip[1][1]
    quotient = poly_divide_series(poly_neg(e0), e1, order)
    residual = quotient * Series(e1, order) + Series(e0, order)
    assert residual.coeffs == (0,) * (order + 1)


def test_uncorrected_quotient_stops_counting_at_the_ceiling():
    # without the ceiling-row correction, the determinant quotient first
    # deviates from the exhaustive count at n = 2*bound + 2, the shortest
    # length that can touch level bound + 1; the corrected family never does
    strip = _strip_run(3)
    for bound in (1, 2, 3):
        plain = poly_divide_series(
            poly_neg(strip[bound - 1][0]), strip[bound][0], 10
        ).coeffs
        corrected = bounded.bounded_series_det(bound, 10)
        for n in range(11):
            want = oracle.brute_force_count(
                n, PathConstraints(peakless=True, max_height=bound)
            )
            assert corrected[n] == want
            if n < 2 * bound + 2:
                assert plain[n] == want
        assert plain[2 * bound + 2] != corrected[2 * bound + 2]


def test_dp_fixtures():
    assert bounded.bounded_counts_dp(6, [3]) == [17]
    assert bounded.bounded_counts_dp(4, [0]) == [1]
    assert bounded.bounded_counts_dp(0, [0]) == [1]
    assert bounded.bounded_column_dp(1, 14) == tuple(HEIGHT_LE_1)
    assert bounded.bounded_column_dp(0, 0) == (1,)
    with pytest.raises(ValueError):
        bounded.bounded_counts_dp(-1, [2])
    with pytest.raises(ValueError):
        bounded.bounded_column_dp(-1, 2)
    # levels past n_max // 2 are never packed, however large the bound
    assert bounded.bounded_column_dp(10**6, 11) == tuple(counting.peakless_series(11))


def test_dp_column_slots_hold_large_counts():
    # every level of the automaton shares one int; a slot too narrow for
    # 3^n_max carries into its neighbour only far past the oracle's lengths
    series = counting.peakless_series(1000)
    assert bounded.bounded_column_dp(500, 1000)[1000] == series[1000]
    # the middle join's slots hold 3^(n // 2): odd n, whose halves meet
    # around one middle step, at scale
    assert bounded.bounded_counts_dp(999, [499]) == [series[999]]
    for bound in (30, 150):
        det = bounded.bounded_series_det(bound, 300)
        assert bounded.bounded_column_dp(bound, 300) == det, bound
    joins = bounded.bounded_counts_dp(301, (30, 150))
    assert joins == [bounded.bounded_column_dp(l, 301)[301] for l in (30, 150)]


def test_dp_matches_oracle():
    for n in range(11):
        for bound in range(6):
            want = oracle.brute_force_count(
                n, PathConstraints(peakless=True, max_height=bound)
            )
            assert bounded.bounded_counts_dp(n, [bound]) == [want]


def test_middle_join_matches_the_column():
    # n = 0 and 1, odd n, bound 0 and bounds past n/2
    for n in range(40):
        for bound in range(n // 2 + 2):
            column = bounded.bounded_column_dp(bound, n)
            assert bounded.bounded_counts_dp(n, [bound]) == [column[n]], (n, bound)


def test_shared_pass_joins_match_the_column():
    # every bound of one length branches off one pass; each join meets the
    # automaton column, a separate pass, and bounds past n/2 read as n/2
    for n in range(61):
        half = n // 2
        want = [bounded.bounded_column_dp(l, n)[n] for l in range(half + 1)]
        assert bounded.bounded_counts_dp(n, range(half + 1)) == want, n
        past = (half + 1, half + 7, 10**9)
        assert bounded.bounded_counts_dp(n, past) == [want[half]] * 3, n
    # any order, repeats kept, and each bound alone agrees
    joins = bounded.bounded_counts_dp(41, (7, 2, 7, 0))
    assert joins == [bounded.bounded_counts_dp(41, [l])[0] for l in (7, 2, 7, 0)]
    assert bounded.bounded_counts_dp(9, ()) == []
    with pytest.raises(ValueError):
        bounded.bounded_counts_dp(9, (3, -1))


# every entry point with a size, a size below its domain and the exact line
# it raises: one gate, `errors.check_sizes`, words each of them
NEGATIVE = "^{} must be nonnegative, got {}$".format
BELOW = "^{} must be at least {}, got {}$".format
BAD_SIZES = [
    (lambda: counting.motzkin_numbers(-1), NEGATIVE("length", -1)),
    (lambda: counting.peakless_series(-2), NEGATIVE("length", -2)),
    (lambda: counting.peakless_recurrence(-1), NEGATIVE("length", -1)),
    (lambda: counting.peakless_decimals(-1), NEGATIVE("length", -1)),
    (lambda: counting.peakless_closed_form(-1), NEGATIVE("length", -1)),
    (lambda: next(counting.end_level_stream(-1)), NEGATIVE("order", -1)),
    (lambda: counting.pretty_cf_agreements(0, 5), BELOW("depth", 1, 0)),
    (lambda: next(counting.pretty_cf_stream(-1)), NEGATIVE("order", -1)),
    (lambda: counting.pretty_cf_agreements(3, -1), NEGATIVE("order", -1)),
    (lambda: PathConstraints(end_level=-1), NEGATIVE("end level", -1)),
    (lambda: PathConstraints(max_height=-2), NEGATIVE("bound", -2)),
    (lambda: paths.prefix_blocks(-1), NEGATIVE("length", -1)),
    (lambda: paths.enumerate_paths(-2), NEGATIVE("length", -2)),
    (lambda: oracle.classification_table(-1), NEGATIVE("length", -1)),
    (lambda: oracle.height_counts(4, end_level=-1), NEGATIVE("end level", -1)),
    (lambda: oracle.brute_force_count(-1), NEGATIVE("length", -1)),
    (lambda: Series((1, 2), -1), NEGATIVE("order", -1)),
    (lambda: Series((1, 2)).shift(-1), NEGATIVE("shift", -1)),
    (lambda: poly_divide_series((1,), (1, -1), -1), NEGATIVE("order", -1)),
    (lambda: asymptotics.log_predicted_count(0), BELOW("length", 1, 0)),
    (lambda: asymptotics.predicted_count(-1), BELOW("length", 1, -1)),
    (lambda: asymptotics.predicted_avg_height(0), BELOW("length", 1, 0)),
    (
        lambda: asymptotics.convergence_report("count", [5, 0, -1]),
        BELOW("report length", 1, 0),
    ),
    (
        lambda: asymptotics.convergence_report("avg_height", [-3], cap=-1),
        BELOW("report length", 1, -3),
    ),
    (lambda: ResourceLimitError.check("report", [], -1), NEGATIVE("report cap", -1)),
]


def test_every_entry_point_words_a_negative_size_alike():
    # one bound rule for every bounded engine: the same two lines, from the
    # engines, the table, its check and the height distribution
    calls = {
        "bounded_series_det": bounded.bounded_series_det,
        "bounded_column_dp": bounded.bounded_column_dp,
        "bounded_counts_dp": lambda l, n: bounded.bounded_counts_dp(n, (3, l)),
        "one bound": lambda l, n: bounded.bounded_counts_dp(n, [l])[0],
        "check_columns": lambda l, n: bounded.check_columns([(1,)], n, l, "dp"),
    }
    for method in ("cf", "det", "dp"):
        calls[method] = lambda l, n, m=method: bounded.bounded_count_table(n, l, m)
    for call in calls.values():
        with pytest.raises(ValueError, match=NEGATIVE("bound", -1)):
            call(-1, 6)
        with pytest.raises(ValueError, match=NEGATIVE("length", -1)):
            call(2, -1)
    for n in (-1, -2, -3):
        with pytest.raises(ValueError, match=NEGATIVE("length", n)):
            bounded.height_distribution(n)
        with pytest.raises(ValueError, match=NEGATIVE("length", n)):
            bounded.bounded_counts_dp(n, ())
    # and every other entry point through the same gate
    for call, message in BAD_SIZES:
        with pytest.raises(ValueError, match=message):
            call()


def test_join_slots_read_back_whole_bytes():
    # a cell that fills the top byte of its slot reads back exactly, beside
    # full, empty and one-bit neighbours and a last level that is zero
    for size in (1, 2, 5):
        full = (1 << (8 * size)) - 1
        cells = [full, 0, full, 1 << (8 * size - 1), 1, 0]
        packed = sum(c << (8 * size * j) for j, c in enumerate(cells))
        assert bounded._cells(packed, size, len(cells)) == cells


def test_height_distribution_matches_the_column_table():
    # the dp table reads whole columns, not the join behind the distribution
    n = 200
    table = bounded.bounded_count_table(n, n // 2, "dp")
    counts = [column[n] for column in table]
    want = [counts[0]] + [b - a for a, b in itertools.pairwise(counts)]
    while want[-1] == 0:  # a peakless path of length 200 stays below 100
        want.pop()
    stats = bounded.height_distribution(n)
    assert stats.distribution == tuple(want)
    mean = Fraction(sum(l * c for l, c in enumerate(want)), counts[-1])
    assert stats.expected_height == mean


def test_height_distribution_fixtures():
    stats = bounded.height_distribution(4)
    assert stats.distribution == (1, 3)
    assert stats.expected_height == Fraction(3, 4)
    assert float(stats.expected_height) == 0.75
    empty = bounded.height_distribution(0)
    assert empty.distribution == (1,)
    assert empty.expected_height == 0
    # frozen from a full scan of the 3^12 sequences
    twelve = bounded.height_distribution(12)
    assert twelve.distribution == (1, 350, 1059, 690, 172, 11)
    assert twelve.expected_height == Fraction(5281, 2283)


def test_height_distribution_matches_oracle():
    for n in range(17):
        want = oracle.height_counts(n, peakless=True)
        assert list(bounded.height_distribution(n).distribution) == want, n


def test_height_distribution_consistency():
    series = counting.peakless_series(60)
    # ladder columns: an engine independent of the automaton behind the stats
    ladder = bounded.bounded_count_table(60, 30, "cf")
    for n in range(61):
        stats = bounded.height_distribution(n)
        bounded.check_height_distribution(stats)  # free invariants and total
        assert sum(stats.distribution) == series[n]
        assert stats.distribution[0] == 1
        # tail form of the expectation must agree exactly with the moment form
        tail = sum(series[n] - ladder[l][n] for l in range(max(n // 2, 1)))
        assert stats.expected_height == Fraction(tail, series[n])


def test_bounded_table_invariants():
    n_max = 60
    series = counting.peakless_series(n_max)
    ladders = bounded.bounded_count_table(n_max, n_max // 2, "cf")
    for n in range(n_max + 1):
        values = [ladders[l][n] for l in range(n_max // 2 + 1)]
        assert values[0] == 1
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v == series[n] for v in values[(n + 1) // 2 :])


def test_bounded_count_table_and_csv():
    # the table is its columns, table[l][n] = A(n, l); its csv lines are
    # pinned through the CLI (golden `export bounded` bytes, route test)
    table = bounded.bounded_count_table(4, 2, "cf")
    assert table == [(1, 1, 1, 1, 1), (1, 1, 1, 2, 4), (1, 1, 1, 2, 4)]
    for method in ("det", "dp"):
        assert bounded.bounded_count_table(4, 2, method=method) == table
    # l_max past n_max // 2 reads the wider columns as the last one built
    for n_max, l_max in ((12, 9), (10, 40)):
        wide = bounded.bounded_count_table(n_max, l_max, "cf")
        assert len(wide) == l_max + 1
        assert {(type(column), len(column)) for column in wide} == {(tuple, n_max + 1)}
        assert wide[n_max // 2 :] == [wide[n_max // 2]] * (l_max + 1 - n_max // 2)
        for method in ("det", "dp"):
            assert bounded.bounded_count_table(n_max, l_max, method=method) == wide
        for l, column in enumerate(wide):
            capped = PathConstraints(peakless=True, max_height=l)
            for n, count in enumerate(column):
                assert count == oracle.brute_force_count(n, capped), (n, l)
    with pytest.raises(ValueError):
        bounded.bounded_count_table(4, 2, method="magic")
    for method in ("cf", "det", "dp"):
        for n_max, l_max in ((5, -2), (-1, 2)):
            with pytest.raises(ValueError):
                bounded.bounded_count_table(n_max, l_max, method=method)


def test_column_streams_build_each_column_once(monkeypatch):
    # one run of the strip family and one ladder per table, never more than
    # min(l_max, n_max // 2) + 1 columns; a step of the family costs one
    # polynomial product, and a table one series division per column; one
    # quotient, however high the bound, makes exactly one division
    calls = {"mul": 0, "inverse": 0, "divide": 0}
    real_mul, real_inverse = series_module.poly_mul, Series.inverse
    real_divide = series_module.poly_divide_series

    def mul(*args):
        calls["mul"] += 1
        return real_mul(*args)

    def inverse(self):
        calls["inverse"] += 1
        return real_inverse(self)

    def divide(*args):
        calls["divide"] += 1
        return real_divide(*args)

    monkeypatch.setattr(series_module, "poly_mul", mul)
    monkeypatch.setattr(Series, "inverse", inverse)
    monkeypatch.setattr(series_module, "poly_divide_series", divide)
    for n_max, l_max in ((40, 20), (10, 1500), (40, 7), (9, 0)):
        calls["mul"] = calls["divide"] = 0
        bounded.bounded_count_table(n_max, l_max, method="det")
        columns = min(l_max, n_max // 2) + 1
        assert calls["mul"] <= columns, (n_max, l_max)
        assert calls["divide"] == columns, (n_max, l_max)
    bounded.bounded_count_table(10, 1500, method="cf")
    assert calls["inverse"] <= 6
    calls["mul"] = 0
    bounded.bounded_series_det(20, 40)
    assert calls["mul"] <= 21  # D_0..D_20
    calls["mul"] = 0
    list(itertools.islice(bounded.strip_family(), 22))
    assert calls["mul"] == 21  # D_0..D_20 past D_-1, one product each
    for bound in (0, 20, 10**8):
        calls["divide"] = 0
        bounded.bounded_series_det(bound, 40)
        assert calls["divide"] == 1, bound


def test_pretty_cf_agreement_orders():
    # the period-3 numerator pattern (z then z, z, z^3 repeating) is a
    # hypothesis; its fingerprint is this staircase of agreement orders
    frozen = [1, 2, 5, 6, 7, 10, 11, 12, 15, 16, 17, 20, 21, 22, 25, 26, 27, 30, 31, 32]
    got = counting.pretty_cf_agreements(20, 40)
    assert got == frozen
    assert all(a <= b for a, b in zip(got, got[1:]))
    for d in range(1, 16):
        assert got[d + 2] > got[d - 1]


def _pretty_cf_inside_out(depth, order):
    # the fraction evaluated from its innermost level outwards
    numerators = [counting.PRETTY_CF_LEAD]
    period = counting.PRETTY_CF_PERIOD
    numerators += [period[i % len(period)] for i in range(depth - 1)]
    one = Series((1,), order)
    den = one
    for coeffs in reversed(numerators[1:]):
        den = one - Series(coeffs, order) * den.inverse()
    return one + Series(numerators[0], order) * den.inverse()


def test_pretty_cf_convergents_match_the_inside_out_fraction():
    stream = counting.pretty_cf_stream(40)
    for d, truncation in zip(range(1, 21), stream):
        assert truncation.coeffs == _pretty_cf_inside_out(d, 40).coeffs, d


def test_pretty_cf_makes_one_division(monkeypatch):
    # the forward recurrence is polynomial, one run for every depth with two
    # products per depth; only each depth's quotient is a series
    calls = {"divide": [], "mul": 0}
    real_divide, real_mul = series_module.poly_divide_series, series_module.poly_mul

    def divide(*args):
        calls["divide"].append(args[2])
        return real_divide(*args)

    def mul(*args):
        calls["mul"] += 1
        return real_mul(*args)

    monkeypatch.setattr(series_module, "poly_divide_series", divide)
    monkeypatch.setattr(series_module, "poly_mul", mul)
    list(itertools.islice(counting.pretty_cf_stream(40), 20))
    assert calls == {"divide": [40] * 20, "mul": 40}


def test_pretty_cf_pattern_is_data():
    assert counting.PRETTY_CF_LEAD == (0, 1)
    assert counting.PRETTY_CF_PERIOD == ((0, 1), (0, 1), (0, 0, 0, 1))
    with pytest.raises(ValueError):
        counting.pretty_cf_agreements(0, 10)


def test_pretty_cf_depth_one():
    assert next(counting.pretty_cf_stream(5)).coeffs == (1, 1, 0, 0, 0, 0)
    assert counting.pretty_cf_agreements(1, 20) == [1]
