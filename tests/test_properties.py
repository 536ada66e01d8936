"""Random (length, bound, end level) against the exhaustive oracle.

Each bounded engine and element k of `end_level_stream` must give the
count that the oracle reads off its table for the matching
`PathConstraints`, and every column engine and column stream one column, a
tuple of ints A(0..n, l).
"""
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from peakless import bounded, counting, oracle
from peakless.paths import DEFAULT_ORACLE_CAP, PathConstraints


@st.composite
def length_bound_level(draw):
    n = draw(st.integers(min_value=0, max_value=DEFAULT_ORACLE_CAP))
    bound = draw(st.integers(min_value=0, max_value=8))
    return n, bound, draw(st.integers(min_value=0, max_value=bound))


@settings(deadline=None, max_examples=100)
@given(length_bound_level())
def test_engines_match_oracle(args):
    n, bound, k = args
    want = oracle.brute_force_count(n, PathConstraints(peakless=True, max_height=bound))
    assert bounded.bounded_counts_dp(n, [bound])[0] == want
    column = bounded.bounded_column_dp(bound, n)
    assert type(column) is tuple and all(type(c) is int for c in column)
    assert column[n] == want
    streams = bounded.COLUMN_STREAMS
    tables = [bounded.bounded_count_table(n, bound, m)[bound] for m in streams]
    for other in (bounded.bounded_series_det(bound, n), *tables):
        assert type(other) is tuple and other == column
    want = oracle.brute_force_count(n, PathConstraints(peakless=True, end_level=k))
    assert next(islice(counting.end_level_stream(n), k, None)).coeffs[n] == want
