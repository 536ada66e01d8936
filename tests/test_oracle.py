from math import comb

import pytest

from peakless import counting, oracle
from peakless.errors import OracleLimitError
from peakless.paths import PathConstraints, enumerate_paths


def _classify_python_loop(n):
    # reference loop, one sequence at a time, digits 0 = F, 1 = U, 2 = D
    counts = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(2)]
    if n == 0:
        counts[1][0][0] = 1
        return counts
    total = 3**n
    for idx in range(total):
        rem = idx
        level = 0
        hgt = 0
        prev_up = False
        peak = False
        ok = True
        for _ in range(n):
            d = rem % 3
            rem //= 3
            if d == 0:
                prev_up = False
            elif d == 1:
                level += 1
                prev_up = True
                if level > hgt:
                    hgt = level
            else:
                if prev_up:
                    peak = True
                level -= 1
                prev_up = False
                if level < 0:
                    ok = False
                    break
        if ok:
            pk = 0 if peak else 1
            counts[pk][level][hgt] += 1
    return counts


def test_backends_agree_with_reference_loop():
    # n = 0 and 1 leave a half empty; odd and even n split unevenly and evenly
    for n in range(11):
        reference = _classify_python_loop(n)
        rows = tuple(tuple(map(tuple, layer)) for layer in reference)
        assert oracle.classification_table(n) == rows


def test_half_scans_are_shared_across_lengths():
    # each table equals one built from cold scans, and the tables n <= 14
    # scan each half length 0..7 once
    fresh = []
    for n in range(15):
        oracle._half_scan.cache_clear()
        fresh.append(oracle._classify_halves.__wrapped__(n))
    oracle._half_scan.cache_clear()
    oracle._classify_halves.cache_clear()
    assert [oracle.classification_table(n) for n in range(15)] == fresh
    assert oracle._half_scan.cache_info().misses == 8


def test_table_sums_match_independent_sequences():
    peakless = counting.peakless_recurrence(16)
    motzkin = counting.motzkin_numbers(16)
    for n in range(17):
        table = oracle.classification_table(n)
        assert sum(table[1][0]) == peakless[n]
        assert sum(table[0][0]) + sum(table[1][0]) == motzkin[n]
        # every valid prefix, any end level: sum_k C(n, k) C(k, floor(k/2))
        total = sum(sum(row) for layer in table for row in layer)
        assert total == sum(comb(n, k) * comb(k, k // 2) for k in range(n + 1))


@pytest.mark.parametrize(
    "constraints",
    [
        PathConstraints(),
        PathConstraints(peakless=True),
        PathConstraints(peakless=True, max_height=1),
        PathConstraints(peakless=True, max_height=3, end_level=2),
        PathConstraints(end_level=1),
        PathConstraints(max_height=0),
    ],
)
def test_counts_match_enumeration(constraints):
    for n in range(9):
        want = len(list(enumerate_paths(n, constraints)))
        assert oracle.brute_force_count(n, constraints) == want


def test_default_constraints_are_motzkin():
    assert oracle.brute_force_count(4) == 9
    assert oracle.brute_force_count(4, PathConstraints(peakless=True)) == 4
    assert oracle.brute_force_count(0) == 1


def test_height_counts():
    assert oracle.height_counts(4) == [1, 7, 1]
    assert oracle.height_counts(4, peakless=True) == [1, 3]
    assert oracle.height_counts(0) == [1]
    assert oracle.height_counts(3, end_level=3) == [0, 0, 0, 1]


def test_height_counts_rejects_negative_end_level():
    with pytest.raises(ValueError, match="end level must be nonnegative"):
        oracle.height_counts(4, end_level=-1)


def test_end_level_beyond_length():
    assert oracle.brute_force_count(2, PathConstraints(end_level=5)) == 0


def test_cap_enforced():
    with pytest.raises(OracleLimitError):
        oracle.brute_force_count(17)
    with pytest.raises(OracleLimitError):
        oracle.height_counts(17)


def test_classification_table_is_read_only():
    table = oracle.classification_table(6)
    assert sum(table[1][0]) == 17  # m(6)
    assert isinstance(table, tuple)
    assert all(type(c) is int for layer in table for row in layer for c in row)
    with pytest.raises(TypeError):
        table[1][0][0] = 0


def test_classification_table_checks_the_cap_before_any_scan():
    # the gate holds for a table already cached past the cap, and a table
    # past the cap reads no half scan
    oracle._classify_halves(17)
    with pytest.raises(OracleLimitError):
        oracle.classification_table(17)
    oracle._classify_halves.cache_clear()  # so an ungated table would scan
    scans = oracle._half_scan.cache_info()
    with pytest.raises(OracleLimitError):
        oracle.classification_table(17)
    assert oracle._half_scan.cache_info() == scans
