import numpy as np
import pytest

from peakless import oracle
from peakless.errors import OracleLimitError
from peakless.paths import PathConstraints, enumerate_paths


def test_backends_agree_with_reference_loop():
    for n in range(9):
        reference = oracle._classify_python_loop(n)
        assert np.array_equal(oracle.classification_table(n), reference)


def test_numpy_batching_boundaries():
    # force several partial batches
    full = oracle._classify_numpy(9)
    assert np.array_equal(oracle._classify_numpy(9, batch=1000), full)
    assert np.array_equal(oracle._classify_numpy(9, batch=3**9), full)


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


def test_end_level_beyond_length():
    assert oracle.brute_force_count(2, PathConstraints(end_level=5), cap=16) == 0


def test_cap_enforced(monkeypatch):
    with pytest.raises(OracleLimitError):
        oracle.brute_force_count(17)
    with pytest.raises(OracleLimitError):
        oracle.brute_force_count(5, cap=4)
    monkeypatch.setenv("PEAKLESS_ORACLE_CAP", "3")
    with pytest.raises(OracleLimitError):
        oracle.height_counts(4)


def test_classification_table_is_read_only():
    table = oracle.classification_table(6)
    assert table[1, 0, :].sum() == 17  # m(6)
    assert not table.flags.writeable
