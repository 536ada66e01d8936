import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakless.series import (
    Series,
    poly_divide_series,
    poly_mul,
    poly_sub,
    poly_trim,
)

small_series = st.builds(
    Series,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=21),
)

unit_series = st.builds(
    lambda head, tail: Series((head,) + tuple(tail)),
    st.sampled_from((1, -1)),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=20),
)

dense_coefficients = st.integers(min_value=-(10**12), max_value=10**12)
sparse_coefficients = st.sampled_from((0,) * 7 + (1, -1, 3))
# coefficient lists of orders 0..40, dense or mostly zero
operands = st.tuples(
    st.integers(min_value=1, max_value=41),
    st.sampled_from((dense_coefficients, sparse_coefficients)),
).flatmap(lambda shape: st.lists(shape[1], min_size=shape[0], max_size=shape[0]))


def _schoolbook(a, b):
    # every product a_i b_j added into term i + j, zeros included
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return out


@settings(max_examples=200)
@given(operands, operands)
def test_arithmetic_matches_schoolbook(a, b):
    n = min(len(a), len(b))
    full = _schoolbook(a, b)
    assert (Series(a) * Series(b)).coeffs == tuple(full[:n])
    assert poly_mul(tuple(a), tuple(b)) == poly_trim(full)
    assert (Series(a) + Series(b)).coeffs == tuple(a[i] + b[i] for i in range(n))
    assert (Series(a) - Series(b)).coeffs == tuple(a[i] - b[i] for i in range(n))


def test_product_fixtures():
    one_plus = Series((1, 1), 2)
    one_minus = Series((1, -1), 2)
    assert (one_plus * one_minus).coeffs == (1, 0, -1)
    q = Series((1, 1, 1), 2)
    assert (q * q).coeffs == (1, 2, 3)
    f = Series((1, 1, 1, 2), 3)
    assert (f * f).coeffs == (1, 2, 3, 6)


def test_add_sub_truncate_to_smaller_order():
    a = Series((1, 2, 3, 4), 3)
    b = Series((1, 1), 1)
    assert (a + b).coeffs == (2, 3)
    assert (a - b).coeffs == (0, 1)
    assert (a * b).order == 1


def test_inverse_fixtures():
    geometric = Series((1, -1), 4).inverse()
    assert geometric.coeffs == (1, 1, 1, 1, 1)
    # (1 - z + z^2)(1 + z - z^3 - z^4) = 1 - z^6, so the inverse holds to order 4
    assert Series((1, -1, 1), 4).inverse().coeffs == (1, 1, 0, -1, -1)
    assert Series((1,), 3).inverse().coeffs == (1, 0, 0, 0)
    negated = Series((-1, 1), 4)
    assert (negated * negated.inverse()).coeffs == (1, 0, 0, 0, 0)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        Series((2, 1), 3).inverse()
    with pytest.raises(ValueError):
        Series((0, 1), 3).inverse()


@settings(max_examples=100)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


@settings(max_examples=100)
@given(unit_series)
def test_inverse_roundtrip(a):
    assert (a * a.inverse()).coeffs == Series((1,), a.order).coeffs


@settings(max_examples=100)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8),
    st.sampled_from((1, -1)),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=7),
)
def test_poly_division_contract(num, d0, dtail):
    den = (d0,) + tuple(dtail)
    order = 16
    quotient = poly_divide_series(num, den, order)
    assert (quotient * Series(den, order)).coeffs == Series(num, order).coeffs


def test_poly_division_fixtures():
    assert poly_divide_series((1,), (1, -1), 3).coeffs == (1, 1, 1, 1)
    assert poly_divide_series((1, -1), (1, -1), 3).coeffs == (1, 0, 0, 0)
    # -1/(z - z^2 - 1) = 1/(1 - z + z^2): periodic with two-term head
    assert poly_divide_series((-1,), (-1, 1, -1), 4).coeffs == (1, 1, 0, -1, -1)
    # -1/(z - 1) = 1/(1 - z): the flat-runs-only generating function
    assert poly_divide_series((-1,), (-1, 1), 4).coeffs == (1, 1, 1, 1, 1)


def test_poly_division_requires_unit_constant():
    with pytest.raises(ValueError):
        poly_divide_series((1,), (2, 1), 3)


def test_poly_helpers():
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_trim((0, 0)) == (0,)
    assert poly_sub((1, 2, 5), (0, 0, 5)) == (1, 2)
    assert poly_mul((1, -1), (1, -1)) == (1, -2, 1)
    assert poly_mul(poly_mul((1, -1), (1, -1)), (1, 0, 1)) == (1, -2, 2, -2, 1)


def test_shift():
    a = Series((1, 2, 3), 4)
    assert a.shift(2).coeffs == (0, 0, 1, 2, 3)
    assert a.shift(0).coeffs == a.coeffs
    assert a.shift(5).coeffs == (0,) * 5
    assert a.shift(9).coeffs == (0,) * 5  # past the order: zero, same order
    with pytest.raises(ValueError):
        a.shift(-1)


def test_immutability_and_equality():
    # a Series is read by its coefficients, which its order fixes in number
    a = Series((1, 2), 1)
    with pytest.raises(AttributeError):
        a.coeffs = (0,)
    assert a.coeffs == Series((1, 2), 1).coeffs
    assert a.coeffs != Series((1, 2), 2).coeffs  # same values, other order


def test_constructor_padding_and_validation():
    assert Series((1, 2), 4).coeffs == (1, 2, 0, 0, 0)
    assert Series((1, 2, 3, 4), 1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        Series((), None)
    with pytest.raises(ValueError):
        Series((1,), -1)
