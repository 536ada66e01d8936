"""Exact counting engines for peakless Motzkin paths.

Let m(n) be the number of peakless Motzkin paths of length n (OEIS
A004148: 1, 1, 1, 2, 4, 8, 17, ...); their counts A(n, l) within height l
live in `bounded`.  Everything here is exact integer arithmetic, and every
quantity is computed by at least two independent routes so the engines can
cross-check each other and the brute-force oracle:

* `peakless_series`: F(z) = sum m(n) z^n as the unique power-series root
  of z^2 F^2 - (1 - z + z^2) F + 1 = 0, its coefficients read off the
  equation one at a time (O(n^2) products).
* `peakless_recurrence`: the holonomic recurrence
  n m(n) - (2n+3) m(n+1) - (n+3) m(n+2) - (2n+9) m(n+3) + (n+6) m(n+4) = 0
  with exact division at every step (a remainder is a disagreement between
  the recurrence and exact division).  `peakless_decimals` runs the same
  loop on `Decimal` terms under `EXACT_DECIMAL`, a context in which a lost
  digit raises instead of rounding; libmpdec keeps base-10^19 digits, so
  printing those terms is linear in their length where `str(int)` is
  quadratic.
* `peakless_closed_form`: the single term m(n) = sum_k C(n-k, k) C(n-k-1, k)
  / (k+1), sharing no code with any engine, for checking the far end of a
  long sequence.  Its terms are exact Decimals too, each step one product
  and one division by a factor that fits one libmpdec word.
* `end_level_stream`: paths ending at level k, h_k = z^k F^{k+1}, as one
  stream h_0, h_1, ... with one product by the kernel root z F per step.
  These satisfy the three-term relation
  z h_k + (z - z^2 - 1) h_{k-1} + z h_{k-2} = 0, the kernel
  z u^2 + (z - z^2 - 1) u + z applied to the power chain of u = z F;
  `verify.check_kernel_identities` holds it to zero.
* `pretty_cf_stream`: the continued fraction for F cut at depths 1, 2,
  ..., its convergents built forward in one run as quotients of two
  polynomials, each expanded by one series division;
  `pretty_cf_agreements` reads how far each depth agrees with F.

Each printed m(n) meets a second route in one `check_*` function:
`check_counts` (m(0..n)) and `check_far_end` (one m(n) against the closed
form); each calls its engines through the module's globals.  The
functions that need `series` import it when called, so a request that
prints m(n) loads neither `series` nor `bounded`.
"""
import decimal
from itertools import chain, cycle, islice, takewhile
from operator import eq, mul

from .errors import CROSS_CHECK_LIMIT, check_agreement, check_sizes

PEAKLESS_INITIAL = (1, 1, 1, 2)

# exact integer arithmetic on Decimals: as many digits as libmpdec allows,
# and any result that would lose one raises instead of rounding
EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
)
EXACT_DECIMAL.traps[decimal.Inexact] = EXACT_DECIMAL.traps[decimal.Rounded] = True

# numerators of the continued fraction for F: a leading z, then the
# repeating block z, z, z^3 (each written as polynomial coefficients)
PRETTY_CF_LEAD = (0, 1)
PRETTY_CF_PERIOD = ((0, 1), (0, 1), (0, 0, 0, 1))


def motzkin_numbers(n_max):
    """Motzkin numbers M_0..M_{n_max} by the convolution recurrence.

    M_{n+1} = M_n + sum_{k<n} M_k M_{n-1-k}; used as the oracle for
    unrestricted-path tests (all Motzkin paths, peaks allowed).
    """
    check_sizes("length", [n_max])
    m = [1]
    for n in range(n_max):
        m.append(m[n] + sum(m[k] * m[n - 1 - k] for k in range(n)))
    return m


def peakless_series(n_max):
    """m(0)..m(n_max), read off (1 - z + z^2) F = 1 + z^2 F^2.

    One coefficient at a time: f_0 = f_1 = 1 (the z^0 and z^1 terms of the
    equation) and f_n = f_{n-1} - f_{n-2} + sum_{i+j=n-2} f_i f_j for
    n >= 2, the convolution folded in half by its symmetry.  O(n^2) big-int
    products, no division.
    """
    check_sizes("length", [n_max])
    f = [1, 1]
    for n in range(2, n_max + 1):
        m = n - 2
        conv = 2 * sum(map(mul, f[: (m + 1) // 2], f[m : m // 2 : -1]))
        if m % 2 == 0:
            conv += f[m // 2] ** 2
        f.append(f[n - 1] - f[m] + conv)
    return f[: n_max + 1]


def _extend_recurrence(values, n_max):
    # m(0)..m(n_max) from values, which must hold at least the four initial terms
    check_sizes("length", [n_max])
    v = list(values)
    for n in range(len(v) - 4, n_max - 3):
        num = (
            v[n + 3] * (2 * n + 9)
            + v[n + 2] * (n + 3)
            + v[n + 1] * (2 * n + 3)
            - v[n] * n
        )
        quot, rem = divmod(num, n + 6)
        if rem:  # m(n + 4) is no integer: the seeds or the step are wrong
            names = ("recurrence remainder", "exact division")
            check_agreement(names, [rem], [0], start=n + 4)
        v.append(quot)
    return v[: n_max + 1]


def peakless_recurrence(n_max):
    """m(0)..m(n_max) from the holonomic recurrence, exact division only."""
    return _extend_recurrence(PEAKLESS_INITIAL, n_max)


def peakless_decimals(n_max):
    """`peakless_recurrence(n_max)` as exact Decimals, whose str() is linear."""
    with decimal.localcontext(EXACT_DECIMAL):
        seeds = map(decimal.Decimal, PEAKLESS_INITIAL)
        return _extend_recurrence(seeds, n_max)


def peakless_closed_form(n):
    """m(n) = sum_k C(n-k, k) C(n-k-1, k) / (k+1), each term from the last.

    t_{k+1} = t_k (n-2k)(n-2k-1)^2 (n-2k-2) / ((n-k)(n-k-1)(k+1)(k+2)): one
    big-by-small product and one exact division per k, O(n^2) digit work.
    The terms are Decimals under `EXACT_DECIMAL`, where a lost digit
    raises; for n < 55 000 both small factors stay below 10^19, one
    libmpdec word, so each step is a single-word product and a single-word
    division (past that the result stays exact, only slower).  The sum is
    returned as an int, which int() builds without a decimal string.
    """
    check_sizes("length", [n])
    with decimal.localcontext(EXACT_DECIMAL):
        total = term = decimal.Decimal(1)  # k = 0, also for n = 0
        for k in range((n - 1) // 2):
            j = n - 2 * k
            p = j * (j - 1) ** 2 * (j - 2)
            term = term * p // ((n - k) * (n - k - 1) * (k + 1) * (k + 2))
            total += term
    return int(total)


def end_level_stream(order):
    """h_0, h_1, h_2, ... as Series to the given order, h_k = z^k F^{k+1}.

    One `peakless_series` run gives F, and each step multiplies the last
    power by the kernel root z F once, so h_0..h_k cost k products.
    """
    from .series import Series

    check_sizes("order", [order])
    h = Series(peakless_series(order), order)
    root = h.shift(1)
    while True:
        yield h
        h = h * root


def check_far_end(route, value, n):
    """Hold m(n), as `route` computed it, to the closed form."""
    closed = peakless_closed_form(n)
    check_agreement((route, "closed form"), [value], [closed], f" at n={n}", start=n)


def check_counts(values, n):
    """Hold printed m(0..n) to two routes: term n, the last of n + 1, meets
    the closed form, and the first 201 terms the functional equation."""
    closed = [peakless_closed_form(n)]
    # values[n:] is the one term m(n) only if exactly n + 1 are printed
    check_agreement(
        ("recurrence", "closed form"), values[n:], closed, f" at n={n}", start=n
    )
    checked = values[: CROSS_CHECK_LIMIT + 1]
    series = peakless_series(len(checked) - 1)
    check_agreement(("functional equation", "recurrence"), series, checked)


def pretty_cf_stream(order):
    """Truncations of the continued fraction for F at depths 1, 2, ...

    The numerator pattern is data (PRETTY_CF_LEAD then PRETTY_CF_PERIOD
    cycling): 1 + z/(1 - z/(1 - z/(1 - z^3/(1 - ...)))), the depth-d
    truncation keeping d numerators and ending its innermost level in 1.
    The tail is a_1/(1 + a_2/(1 + ...)) with a_1 = z and a_i = -(period
    term), so its convergents A_d/B_d follow the forward recurrence
    X_d = X_{d-1} + a_d X_{d-2} from A_{-1} = 1, A_0 = 0, B_{-1} = 0,
    B_0 = 1, one run for every depth.  Each truncation is a Series to the
    given order, one exact division of A_d + B_d by B_d, whose constant
    term is 1 since no a_i has one.
    """
    from .series import poly_divide_series, poly_mul, poly_neg, poly_sub

    # -a_1, -a_2, ...: X_d = X_{d-1} - (-a_d) X_{d-2}
    negated = chain([poly_neg(PRETTY_CF_LEAD)], cycle(PRETTY_CF_PERIOD))
    a_prev, a, b_prev, b = (1,), (0,), (0,), (1,)
    for term in negated:
        a_prev, a = a, poly_sub(a, poly_mul(term, a_prev))
        b_prev, b = b, poly_sub(b, poly_mul(term, b_prev))
        yield poly_divide_series(poly_sub(a, poly_neg(b)), b, order)


def pretty_cf_agreements(depth, order):
    """For each depth 1..depth, the largest M <= order with that truncation
    matching m(0)..m(M).

    One `peakless_series(order)` and one `pretty_cf_stream(order)` run
    serve every depth.  Each order is the numerators' valuation sum
    v_1 + ... + v_{d+1} - 1, which `verify.check_pretty_cf` holds it to,
    together with the period's fixed point against the functional equation.
    """
    check_sizes("depth", [depth], least=1)
    # the truncations first, so a negative order is named as one
    truncations = list(islice(pretty_cf_stream(order), depth))
    reference = peakless_series(order)
    return [
        len(list(takewhile(bool, map(eq, t.coeffs, reference)))) - 1
        for t in truncations
    ]
