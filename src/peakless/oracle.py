"""Brute-force classification of all 3^n step sequences of a given length.

This is the hot loop of the test oracle: every sequence over {F, U, D} is
walked once and, when it never dips below level 0, binned by

    (peakless?, end level, height)

into an int64 table.  Any constrained count (Motzkin paths, peakless
paths, bounded height, chosen end level) is then a partial sum of table
cells.  Counts fit int64 comfortably for any length the cap allows
(3^16 ~ 4.3e7 sequences).

The scan is batched numpy; `_classify_python_loop` is a plain-Python
reference that the tests hold it to.

Step digit coding, shared with the enumeration order in `paths`:
0 = flat, 1 = up, 2 = down.
"""
from functools import lru_cache

import numpy as np

from .errors import OracleLimitError
from .paths import PathConstraints, oracle_cap


def _classify_numpy(n, batch=1 << 19):
    counts = np.zeros((2, n + 1, n + 1), dtype=np.int64)
    if n == 0:
        counts[1, 0, 0] = 1
        return counts
    total = 3**n
    pow3 = 3 ** np.arange(n, dtype=np.int64)
    increments = np.array([0, 1, -1], dtype=np.int8)
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total), dtype=np.int64)
        digits = (idx[:, None] // pow3[None, :]) % 3  # digit j = step j
        levels = np.cumsum(increments[digits], axis=1, dtype=np.int32)
        valid = levels.min(axis=1) >= 0
        if not valid.any():
            continue
        digits = digits[valid]
        levels = levels[valid]
        end = levels[:, -1].astype(np.int64)
        hgt = levels.max(axis=1).astype(np.int64)
        peak = ((digits[:, :-1] == 1) & (digits[:, 1:] == 2)).any(axis=1)
        pk = (~peak).astype(np.int64)
        flat = (pk * (n + 1) + end) * (n + 1) + hgt
        counts += np.bincount(flat, minlength=2 * (n + 1) * (n + 1)).reshape(
            2, n + 1, n + 1
        )
    return counts


def _classify_python_loop(n):
    # reference loop, one sequence at a time; used by the tests only
    counts = np.zeros((2, n + 1, n + 1), dtype=np.int64)
    if n == 0:
        counts[1, 0, 0] = 1
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
            counts[pk, level, hgt] += 1
    return counts


@lru_cache(maxsize=64)
def _classification_cached(n):
    table = _classify_numpy(n)
    table.setflags(write=False)
    return table


def classification_table(n):
    """Counts of valid length-n prefixes binned by peaklessness, end, height.

    Parameters
    ----------
    n : int
        Sequence length; must not exceed the brute-force cap.

    Returns
    -------
    (2, n+1, n+1) read-only int64 array
        ``table[pk, end, h]`` counts valid prefixes with that end level and
        height, where pk = 1 for peakless sequences and 0 for the rest.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    return _classification_cached(n)


def brute_force_count(n, constraints=None, cap=None):
    """Number of length-n paths satisfying the constraints, by full scan."""
    if constraints is None:
        constraints = PathConstraints()
    limit = oracle_cap() if cap is None else cap
    if n > limit:
        raise OracleLimitError(
            f"oracle limit: length {n} exceeds brute-force cap {limit}"
        )
    table = classification_table(n)
    if constraints.end_level > n:
        return 0
    layers = table[1:] if constraints.peakless else table
    per_height = layers[:, constraints.end_level, :].sum(axis=0)
    top = n if constraints.max_height is None else min(constraints.max_height, n)
    return int(per_height[: top + 1].sum())


def height_counts(n, peakless=False, end_level=0, cap=None):
    """Counts of length-n paths by exact height, as a plain list."""
    limit = oracle_cap() if cap is None else cap
    if n > limit:
        raise OracleLimitError(
            f"oracle limit: length {n} exceeds brute-force cap {limit}"
        )
    table = classification_table(n)
    if end_level > n:
        return [0]
    layers = table[1:] if peakless else table
    per_height = layers[:, end_level, :].sum(axis=0)
    out = [int(c) for c in per_height]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out
