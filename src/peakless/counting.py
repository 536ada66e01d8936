"""Exact counting engines for peakless Motzkin paths.

Let m(n) be the number of peakless Motzkin paths of length n (OEIS
A004148: 1, 1, 1, 2, 4, 8, 17, ...) and A(n, l) the number of those whose
height stays <= l.  Everything here is exact integer arithmetic, and every
quantity is computed by at least two independent routes so the engines can
cross-check each other and the brute-force oracle:

* `peakless_series`: F(z) = sum m(n) z^n as the unique power-series root
  of z^2 F^2 - (1 - z + z^2) F + 1 = 0, found by fixed-point iteration.
* `peakless_recurrence`: the holonomic recurrence
  n m(n) - (2n+3) m(n+1) - (n+3) m(n+2) - (2n+9) m(n+3) + (n+6) m(n+4) = 0
  with exact division at every step.
* `end_level_series`: paths ending at level k, h_k = z^k F^{k+1}; these
  satisfy the three-term relation z h_k + (z - z^2 - 1) h_{k-1} + z h_{k-2} = 0.
* `bounded_series_cf`: the bounded-height ladder
  A_l = 1 / (1 - z + z^2 - z^2 A_{l-1}) seeded with A_0 = 1/(1-z)
  (at the ceiling only flat runs are possible).
* `bounded_series_det`: the same ladder collapsed into a quotient of
  determinant polynomials of the strip transfer matrix, computed by a
  three-term polynomial recurrence and one exact series division.
* `bounded_count_dp`: dynamic programming over the two-layer automaton
  with levels capped at l.

The strip transfer matrix is tridiagonal with diagonal z - z^2 - 1 and
off-diagonal z, except that the row of the top level has no -z^2 term (no
excursion can rise above the ceiling), so its diagonal entry is z - 1.
`determinant_poly` gives the determinants D_l of the uncorrected all-equal
tridiagonal matrix (D_0 = z - z^2 - 1, D_1 = (1-z)^2 (1+z^2), ...);
`strip_denominator_poly` gives the corrected family E_l whose quotients
-E_{l-1}/E_l are the true bounded generating functions.  The two families
share the recurrence X_l = (z - z^2 - 1) X_{l-1} - z^2 X_{l-2} and differ
only in the seed (D_0 = z - z^2 - 1 versus E_0 = z - 1); the uncorrected
quotient first deviates from the true count at n = 2l + 2, the shortest
length at which a path can touch level l + 1.
"""
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import render
from .series import Series, poly_divide_series, poly_mul, poly_neg, poly_sub

# kernel of the end-level recursion: z u^2 + (z - z^2 - 1) u + z
KERNEL_U2 = (0, 1)
KERNEL_U1 = (-1, 1, -1)
KERNEL_U0 = (0, 1)

PEAKLESS_INITIAL = (1, 1, 1, 2)

TABLE_HEADER = ("n", "ell", "count")  # csv columns of bounded_count_table rows

# numerators of the continued fraction for F: a leading z, then the
# repeating block z, z, z^3 (each written as polynomial coefficients)
PRETTY_CF_LEAD = (0, 1)
PRETTY_CF_PERIOD = ((0, 1), (0, 1), (0, 0, 0, 1))


def motzkin_numbers(n_max):
    """Motzkin numbers M_0..M_{n_max} by the convolution recurrence.

    M_{n+1} = M_n + sum_{k<n} M_k M_{n-1-k}; used as the oracle for
    unrestricted-path tests (all Motzkin paths, peaks allowed).
    """
    m = [1]
    for n in range(n_max):
        m.append(m[n] + sum(m[k] * m[n - 1 - k] for k in range(n)))
    return m


@lru_cache(maxsize=32)
def _peakless_coeffs(order):
    # F = (1 + z^2 F^2) / (1 - z + z^2); the map is a contraction that
    # fixes two more coefficients per pass, so order + 2 passes suffice.
    inv_q = Series((1, -1, 1), order).inverse()
    one = Series.one(order)
    f = one
    for _ in range(order + 2):
        nxt = (one + (f * f).shift(2)) * inv_q
        if nxt == f:
            return f.coeffs
        f = nxt
    raise ArithmeticError("functional-equation iteration failed to stabilize")


def peakless_series(n_max):
    """m(0)..m(n_max) from the functional equation for F."""
    return list(_peakless_coeffs(n_max))


def _extend_recurrence(values, n_max):
    # values must hold at least the four initial terms
    v = list(values)
    for n in range(len(v) - 4, n_max - 3):
        num = (
            (2 * n + 9) * v[n + 3]
            + (n + 3) * v[n + 2]
            + (2 * n + 3) * v[n + 1]
            - n * v[n]
        )
        quot, rem = divmod(num, n + 6)
        if rem:
            raise ArithmeticError(
                f"recurrence step at n={n} is not an exact division (remainder {rem})"
            )
        v.append(quot)
    return v


def peakless_recurrence(n_max):
    """m(0)..m(n_max) from the holonomic recurrence, exact division only."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max < len(PEAKLESS_INITIAL):
        return list(PEAKLESS_INITIAL[: n_max + 1])
    return _extend_recurrence(PEAKLESS_INITIAL, n_max)


def end_level_series(k, n_max):
    """Counts of peakless valid prefixes ending at level k, no height bound.

    The generating function is z^k F^{k+1}, so the coefficient of z^n is
    the number of length-n peakless walks from the origin to level k.
    """
    if k < 0:
        raise ValueError("end level must be nonnegative")
    f = Series(_peakless_coeffs(n_max), n_max)
    power = f
    for _ in range(k):
        power = power * f
    return list(power.shift(k).coeffs)


def kernel_root_series(order):
    """The power-series root s_2 = z F of z u^2 + (z - z^2 - 1) u + z."""
    return Series(_peakless_coeffs(order), order).shift(1)


def kernel_residual(u):
    """Evaluate z u^2 + (z - z^2 - 1) u + z at a Series u (same order)."""
    n = u.order
    return (
        Series(KERNEL_U2, n) * u * u
        + Series(KERNEL_U1, n) * u
        + Series(KERNEL_U0, n)
    )


def bounded_series_cf(bound, order):
    """Generating function of height <= bound paths via the ladder.

    Applies A_l = 1 / (1 - z + z^2 - z^2 A_{l-1}) starting from
    A_0 = 1/(1-z); coefficient n is A(n, bound).
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    a = Series((1, -1), order).inverse()
    q = Series((1, -1, 1), order)
    for _ in range(bound):
        a = (q - a.shift(2)).inverse()
    return a


def _three_term_family(bound, seed0):
    if bound < -1:
        raise ValueError("index must be >= -1")
    prev, cur = (1,), seed0
    if bound == -1:
        return prev
    step = KERNEL_U1  # z - z^2 - 1
    for _ in range(bound):
        prev, cur = cur, poly_sub(poly_mul(step, cur), poly_mul((0, 0, 1), prev))
    return cur


def determinant_poly(bound):
    """Determinant D_l of the (l+1) x (l+1) tridiagonal matrix with
    diagonal z - z^2 - 1 and off-diagonal z; D_{-1} = 1 by convention."""
    return _three_term_family(bound, (-1, 1, -1))


def strip_denominator_poly(bound):
    """Denominator E_l of the bounded-height generating function.

    Same three-term recurrence as `determinant_poly` but seeded with
    E_0 = z - 1: the matrix row of the top level has no -z^2 term because
    nothing may rise above the ceiling.  -E_{l-1}/E_l expands to the exact
    height <= l counts for every l >= 0.
    """
    return _three_term_family(bound, (-1, 1))


def bounded_series_det(bound, order):
    """Height <= bound generating function as a determinant quotient.

    Expands -E_{bound-1}/E_bound with one exact series division, then
    normalizes the sign so the constant term is +1 (never by reasoning
    about the parity of the constant terms).  Refuses bound 0, where the
    quotient machinery adds nothing; use `bounded_series_cf` there.
    """
    if bound < 1:
        raise ValueError(
            "determinant route needs bound >= 1; use bounded_series_cf for bound 0"
        )
    num = poly_neg(strip_denominator_poly(bound - 1))
    den = strip_denominator_poly(bound)
    out = poly_divide_series(num, den, order)
    if out[0] == -1:
        out = -out
    return out


def bounded_count_dp(n, bound):
    """Count height <= bound peakless Motzkin paths of length n by DP.

    Walks the two-layer automaton with levels capped at the bound; the
    bottom layer holds walks whose previous step was an up-step.  Big-int
    additions only, O(n * bound) of them.
    """
    if n < 0 or bound < 0:
        raise ValueError("arguments must be nonnegative")
    top = [0] * (bound + 1)
    bot = [0] * (bound + 1)
    top[0] = 1
    for _ in range(n):
        new_top = [0] * (bound + 1)
        new_bot = [0] * (bound + 1)
        for level in range(bound + 1):
            t = top[level]
            b = bot[level]
            if not (t or b):
                continue
            new_top[level] += t + b  # flat step, either layer
            if level > 0:
                new_top[level - 1] += t  # down step, top layer only
            if level < bound:
                new_bot[level + 1] += t + b  # up step
        top, bot = new_top, new_bot
    return top[0]  # bottom layer is unreachable at level 0


def bounded_count_table(n_max, l_max, method="cf"):
    """Rows (n, l, A(n, l)) for 0 <= n <= n_max, 0 <= l <= l_max.

    method picks the engine: "cf" (ladder), "det" (determinant quotient,
    which defers to the ladder for l = 0), or "dp" (automaton).
    """
    if method not in ("cf", "det", "dp"):
        raise ValueError(f"unknown method {method!r}")
    columns = []
    for l in range(l_max + 1):
        if method == "dp":
            columns.append([bounded_count_dp(n, l) for n in range(n_max + 1)])
        elif method == "det" and l >= 1:
            columns.append(list(bounded_series_det(l, n_max).coeffs))
        else:
            columns.append(list(bounded_series_cf(l, n_max).coeffs))
    return [
        (n, l, columns[l][n]) for n in range(n_max + 1) for l in range(l_max + 1)
    ]


def bounded_table_csv(rows):
    """Render (n, l, count) rows in the stable CSV schema."""
    return render.csv_text(TABLE_HEADER, rows)


@dataclass(frozen=True)
class HeightStats:
    """Exact height statistics of the peakless Motzkin paths of length n."""

    n: int
    distribution: tuple
    expected_height: Fraction

    @property
    def expected_height_float(self):
        return float(self.expected_height)

    def total(self):
        return sum(self.distribution)


def height_distribution(n):
    """Distribution of heights among peakless Motzkin paths of length n.

    distribution[l] is the number of such paths of height exactly l,
    computed as A(n, l) - A(n, l-1) with the DP engine; trailing zero
    entries are trimmed.  The expectation is the exact rational
    sum(l * distribution[l]) / m(n).
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    dist = []
    prev = 0
    for l in range(n // 2 + 1):
        count = bounded_count_dp(n, l)
        dist.append(count - prev)
        prev = count
    total = prev  # A(n, floor(n/2)) = m(n), the bound is inactive beyond it
    while len(dist) > 1 and dist[-1] == 0:
        dist.pop()
    expected = Fraction(sum(l * c for l, c in enumerate(dist)), total)
    return HeightStats(n=n, distribution=tuple(dist), expected_height=expected)


def pretty_cf_series(depth, order):
    """Truncation of the continued fraction for F with `depth` numerators.

    The numerator pattern is data (PRETTY_CF_LEAD then PRETTY_CF_PERIOD
    cycling): 1 + z/(1 - z/(1 - z/(1 - z^3/(1 - ...)))), innermost level
    terminated by 1.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    numerators = [PRETTY_CF_LEAD]
    for i in range(depth - 1):
        numerators.append(PRETTY_CF_PERIOD[i % len(PRETTY_CF_PERIOD)])
    one = Series.one(order)
    den = one
    for coeffs in reversed(numerators[1:]):
        den = one - Series(coeffs, order) * den.inverse()
    return one + Series(numerators[0], order) * den.inverse()


def pretty_cf_agreement(depth, order):
    """Largest M <= order with the depth-d truncation matching m(0)..m(M).

    The period-3 numerator pattern is a hypothesis to be validated: the
    agreement order must keep growing with depth, which the tests check to
    substantial depth.
    """
    truncation = pretty_cf_series(depth, order)
    reference = _peakless_coeffs(order)
    matched = -1
    for k in range(order + 1):
        if truncation[k] != reference[k]:
            break
        matched = k
    return matched
