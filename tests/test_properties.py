"""Random (length, bound, end level) against the exhaustive oracle.

Each bounded engine and `end_level_series` must give the count that the
oracle reads off its table for the matching `PathConstraints`.
"""
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
    assert bounded.bounded_count_dp(n, bound) == want
    assert bounded.bounded_series_cf(bound, n)[n] == want
    assert bounded.bounded_series_det(bound, n)[n] == want
    want = oracle.brute_force_count(n, PathConstraints(peakless=True, end_level=k))
    assert counting.end_level_series(k, n)[n] == want
