"""Acceptance criteria, one test per criterion.

Each test pins the exact values or tolerances the build commits to; the
conftest hook prints one pass/fail line per criterion at the end of the
run.  Criteria 08 and 10 check reference constants against values derived
independently of the program: criterion 08 compares the exact average
heights with the diffusion-limit constant 5^{-1/4} (derivation in the
test), and criterion 10 pins 3^{-1/2} at its correctly rounded ten-decimal
value.
"""
import math

from peakless import asymptotics, bounded, counting, oracle
from peakless.paths import PathConstraints, enumerate_paths, height
from peakless.series import Series, poly_mul

FIVE_WAY_N = 14
FIVE_WAY_L = 7


def test_criterion_01_sequence_prefix_from_both_engines():
    expect = [1, 1, 1, 2, 4, 8, 17]
    assert counting.peakless_series(6) == expect
    assert counting.peakless_recurrence(6) == expect


def test_criterion_02_five_way_agreement():
    series = counting.peakless_series(FIVE_WAY_N)
    assert counting.peakless_recurrence(FIVE_WAY_N) == series
    ladders = {
        l: bounded.bounded_series_cf(l, FIVE_WAY_N) for l in range(FIVE_WAY_L + 1)
    }
    quotients = {
        l: bounded.bounded_series_det(l, FIVE_WAY_N) for l in range(FIVE_WAY_L + 1)
    }
    for n in range(FIVE_WAY_N + 1):
        unbounded = oracle.brute_force_count(n, PathConstraints(peakless=True))
        assert unbounded == series[n]
        assert bounded.bounded_count_dp(n, n // 2) == series[n]
        for l in range(FIVE_WAY_L + 1):
            brute = oracle.brute_force_count(
                n, PathConstraints(peakless=True, max_height=l)
            )
            assert bounded.bounded_count_dp(n, l) == brute, (n, l)
            assert ladders[l][n] == brute, (n, l)
            assert quotients[l][n] == brute, (n, l)


def test_criterion_03_length_four_census():
    assert len(list(enumerate_paths(4))) == 9
    assert len(list(enumerate_paths(4, PathConstraints(peakless=True)))) == 4
    heights = sorted(height(p) for p in enumerate_paths(4))
    assert heights == [0, 1, 1, 1, 1, 1, 1, 1, 2]
    assert oracle.height_counts(4) == [1, 7, 1]


def test_criterion_04_recurrence_exact_divisibility_to_5000():
    values = counting.peakless_recurrence(5000)  # raises on any inexact division
    assert len(values) == 5001
    for n in (0, 1, 137, 2500, 4996):
        residual = (
            n * values[n]
            - (2 * n + 3) * values[n + 1]
            - (n + 3) * values[n + 2]
            - (2 * n + 9) * values[n + 3]
            + (n + 6) * values[n + 4]
        )
        assert residual == 0, n


def test_criterion_05_kernel_identities_to_order_200():
    order = 200
    f = Series(counting.peakless_series(order), order)
    q = Series((1, -1, 1), order)
    assert ((f * f).shift(2) - q * f + Series.one(order)).is_zero()
    s2 = counting.kernel_root_series(order)
    assert s2 == f.shift(1)
    assert counting.kernel_residual(s2).is_zero()
    hk = [Series(counting.end_level_series(k, order), order) for k in range(7)]
    qbar = Series((-1, 1, -1), order)
    for k in range(2, 7):
        assert (hk[k].shift(1) + qbar * hk[k - 1] + hk[k - 2].shift(1)).is_zero(), k


def test_criterion_06_determinant_fixtures():
    assert bounded.determinant_poly(0) == (-1, 1, -1)  # z - z^2 - 1
    expected = poly_mul(poly_mul((1, -1), (1, -1)), (1, 0, 1))  # (1-z)^2 (1+z^2)
    assert bounded.determinant_poly(1) == expected


def test_criterion_07_count_asymptotics():
    deviations = [abs(asymptotics.count_ratio(n) - 1.0) for n in (250, 500, 1000, 2000)]
    assert deviations[-1] < 0.01
    assert all(a > b for a, b in zip(deviations, deviations[1:])), deviations


# Derived constant of the average height, E[H] ~ c * sqrt(pi n).  Peakless
# paths are words over {U, F, D} with no factor UD; with y marking a level
# change their transfer matrix is [[1 + 1/y, y], [1, y]], whose dominant
# eigenvalue solves lambda^2 - (1 + y + 1/y) lambda + 1 = 0 (lambda(1) =
# 1/rho).  The per-step variance sigma^2 = d^2/dt^2 log lambda(e^t) at t = 0
# is 2/sqrt(5), and the mean maximum of a Brownian excursion is sqrt(pi/2),
# so E[H] ~ sigma sqrt(pi/2) sqrt(n) = 5^{-1/4} sqrt(pi n).  With the
# Motzkin variance sigma^2 = 2/3 the same argument gives sqrt(pi n / 3),
# and with sigma^2 = 1 it gives de Bruijn, Knuth & Rice's sqrt(pi m) for
# Dyck paths of length n = 2m.
# The recorded constant rendered by predicted_avg_height is twice this;
# PAPER.md holds only the abstract, so where that factor 2 comes from is
# not settled here.
DERIVED_AVG_HEIGHT_CONSTANT = 0.668740304976422  # 5**-0.25


def test_criterion_08_average_height_against_recorded_prediction():
    samples = (50, 100, 200, 400)
    exact = [bounded.height_distribution(n).expected_height_float for n in samples]
    derived = [DERIVED_AVG_HEIGHT_CONSTANT * math.sqrt(math.pi * n) for n in samples]
    ratios = [e / d for e, d in zip(exact, derived)]
    # 1/sqrt(n) Richardson extrapolation of the last two samples
    extrapolated = ratios[-1] + (ratios[-1] - ratios[-2]) / (math.sqrt(2.0) - 1.0)
    recorded_predictions = [asymptotics.predicted_avg_height(n) for n in samples]
    recorded = [e / p for e, p in zip(exact, recorded_predictions)]
    table = ", ".join(f"n={n}: {r:.6f}" for n, r in zip(samples, ratios))
    recorded_table = ", ".join(f"n={n}: {r:.6f}" for n, r in zip(samples, recorded))
    detail = (
        f"exact-to-derived ratios [{table}] extrapolate to {extrapolated:.5f}; "
        f"exact-to-recorded ratios [{recorded_table}] (derived constant "
        f"{DERIVED_AVG_HEIGHT_CONSTANT!r}, recorded "
        f"{asymptotics.AVG_HEIGHT_CONSTANT!r})"
    )
    assert all(a < b for a, b in zip(ratios, ratios[1:])), detail
    assert 0.80 <= ratios[-1] <= 1.05, detail
    assert abs(extrapolated - 1.0) < 0.01, detail
    for p, d in zip(recorded_predictions, derived):
        assert math.isclose(p, 2.0 * d, rel_tol=1e-12), detail


def test_criterion_09_pretty_continued_fraction():
    # the valuation sums v_1 + ... + v_{d+1} - 1 of the numerators
    orders = [counting.pretty_cf_agreement(d, 40) for d in range(1, 21)]
    assert orders == [
        1, 2, 5, 6, 7, 10, 11, 12, 15, 16, 17, 20, 21, 22, 25, 26, 27, 30, 31, 32
    ], orders


def test_criterion_10_reported_constants():
    height_const = asymptotics.AVG_HEIGHT_CONSTANT
    assert abs(height_const - 1.337480610) < 1e-9
    # 1/sqrt(3) = 0.57735026918962576451... (40-digit Decimal), rounded
    # to ten decimals
    reference = 0.5773502692
    computed = asymptotics.MOTZKIN_HEIGHT_CONSTANT
    assert abs(computed - reference) < 1e-10, (
        f"3**-0.5 = {computed!r} differs from the pinned reference {reference} "
        f"by {abs(computed - reference):.3e}, more than one unit in the tenth "
        f"decimal place"
    )
