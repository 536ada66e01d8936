"""Truncated power series and polynomials with exact integer coefficients.

A Series keeps coefficients c_0..c_N for a fixed truncation order N; all
arithmetic truncates to the smaller operand order, so precision loss is
always explicit at the call site.  Inversion requires a constant term of
+1 or -1, which keeps every coefficient an exact integer; whenever that
precondition fails something is wrong upstream, so it raises instead of
falling back to rationals.

Polynomials are plain tuples of ints, lowest degree first, with a handful
of helper functions; `poly_divide_series` expands an exact rational
function num/den into a Series.  One loop, `_product`, multiplies both.
"""
from itertools import starmap, zip_longest
from operator import add, neg, sub


def poly_trim(coeffs):
    """Drop trailing zero coefficients; the zero polynomial becomes (0,)."""
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_sub(a, b):
    return poly_trim(starmap(sub, zip_longest(a, b, fillvalue=0)))


def poly_neg(a):
    return tuple(map(neg, a))


def poly_mul(a, b):
    return poly_trim(_product(a, b, len(a) + len(b) - 2))


def _product(a, b, order):
    # coefficients 0..order of the product of two coefficient sequences; a
    # zero coefficient is skipped, so a sparse operand costs only its terms
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i], i):
                if bj:
                    out[j] += ai * bj
    return out


class Series:
    """Power series truncated at a fixed order, exact int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        coeffs = tuple(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("need coefficients or an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) <= order:
            coeffs = coeffs + (0,) * (order + 1 - len(coeffs))
        else:
            coeffs = coeffs[: order + 1]
        object.__setattr__(self, "coeffs", coeffs)

    # Series is immutable; block attribute assignment despite __slots__.
    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def zero(cls, order):
        return cls((0,), order)

    @classmethod
    def one(cls, order):
        return cls((1,), order)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, n):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Series(map(neg, self.coeffs))

    # map stops at the shorter operand: the smaller order, as truncation says
    def __add__(self, other):
        return Series(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return Series(map(sub, self.coeffs, other.coeffs))

    def __mul__(self, other):
        return Series(_product(self.coeffs, other.coeffs, min(self.order, other.order)))

    def shift(self, k):
        """Multiply by z^k, truncating at the same order."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        n = self.order
        if k > n:
            return Series.zero(n)
        return Series((0,) * k + self.coeffs[: n + 1 - k])

    def inverse(self):
        """Multiplicative inverse to the same order; needs c_0 in {1, -1}."""
        return poly_divide_series((1,), self.coeffs, self.order)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"


def poly_divide_series(num, den, order):
    """Expand num/den as a Series to the given order, exactly.

    Both arguments are polynomial coefficient sequences (lowest degree
    first).  The denominator needs a unit constant term, so the long
    division stays in the integers; `Series.inverse` is the case num = 1.
    """
    num = tuple(num)
    den = tuple(den)
    if not den or den[0] not in (1, -1):
        raise ValueError(
            f"denominator needs a constant term of +1 or -1, got {den[0] if den else None}"
        )
    d0 = den[0]
    out = [0] * (order + 1)
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            dj = den[j]
            if dj:
                acc -= dj * out[k - j]
        out[k] = acc * d0
    return Series(out)
