"""Brute-force classification of all 3^n step sequences of a given length.

This is the test oracle: every sequence over {F, U, D} is accounted for
and, when it never dips below level 0, binned by

    (peakless?, end level, height)

into an int64 table.  Any constrained count (Motzkin paths, peakless
paths, bounded height, chosen end level) is then a partial sum of table
cells.  A cell counts at most 3^n sequences, so int64 holds it for every
n <= 39, far past any length whose half scans fit in memory.

The kernel splits each sequence into two halves.  It scans all 3^(n/2)
sequences of each half length, groups the halves into classes with
multiplicities, and combines every pair of classes by the concatenation
law, so each of the 3^n sequences is counted exactly once without being
walked.  Nothing here comes from the automaton or the counting engines.
`_classify_python_loop` is a plain-Python reference, one sequence at a
time, that the tests hold the kernel to.  `height_counts` is the one
query; it checks the length cap with `paths.check_oracle_length`.

Step digit coding, shared with the enumeration order in `paths`:
0 = flat, 1 = up, 2 = down.
"""
from functools import lru_cache

import numpy as np

from .paths import PathConstraints, check_oracle_length


def _half_scan(m):
    """Statistics of each of the 3^m step sequences of length m.

    Sequence i takes step j from base-3 digit j of i.  Each pass appends
    one step to every sequence so far, so memory stays O(3^m).  Returns
    per-sequence arrays: end level, lowest and highest level (both
    counting the start at 0), whether a UD factor occurs, whether the
    first step is D and whether the last step is U.
    """
    end = lo = hi = np.zeros(1, dtype=np.int64)
    peak = first_down = last_up = np.zeros(1, dtype=bool)
    for j in range(m):
        step = np.repeat(np.array([0, 1, -1]), end.size)  # digit 0, 1, 2
        down = step == -1
        end = np.tile(end, 3) + step
        lo = np.minimum(np.tile(lo, 3), end)
        hi = np.maximum(np.tile(hi, 3), end)
        peak = np.tile(peak, 3) | (np.tile(last_up, 3) & down)
        first_down = down if j == 0 else np.tile(first_down, 3)
        last_up = step == 1
    return end, lo, hi, peak, first_down, last_up


def _classes(fields, shape):
    """Distinct rows of `fields` (each within `shape`) and their counts."""
    key = np.ravel_multi_index(fields, shape)
    counts = np.bincount(key, minlength=int(np.prod(shape)))  # int64, exact
    present = np.flatnonzero(counts)
    return np.unravel_index(present, shape), counts[present]


def _classify_halves(n):
    # A prefix of a = ceil(n/2) steps followed by a suffix of b = n - a
    # steps is a valid prefix iff the prefix never dips below 0 and
    # pend + smin >= 0.  Its end is pend + send, its height
    # max(ph, pend + smax), and it has a peak iff either half has one or
    # the seam reads UD.
    a = (n + 1) // 2
    b = n - a
    end, lo, hi, peak, _, last_up = _half_scan(a)
    ok = lo >= 0
    (pend, ph, pp, pu), pw = _classes(
        (end[ok], hi[ok], peak[ok], last_up[ok]), (a + 1, a + 1, 2, 2)
    )
    end, lo, hi, peak, first_down, _ = _half_scan(b)
    (send, sneg, smax, sp, sd), sw = _classes(
        (end + b, -lo, hi, peak, first_down), (2 * b + 1, b + 1, b + 1, 2, 2)
    )
    send = send - b
    # every prefix class against every suffix class
    pend, ph, pp, pu, pw = (x[:, None] for x in (pend, ph, pp, pu, pw))
    valid = pend >= sneg
    peakless = 1 - (pp | sp | (pu & sd))
    hgt = np.maximum(ph, pend + smax)
    cell = (peakless * (n + 1) + pend + send) * (n + 1) + hgt
    counts = np.zeros(2 * (n + 1) * (n + 1), dtype=np.int64)
    np.add.at(counts, cell[valid], (pw * sw)[valid])
    return counts.reshape(2, n + 1, n + 1)


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
def classification_table(n):
    """Counts of valid length-n prefixes binned by peaklessness, end, height.

    Parameters
    ----------
    n : int
        Sequence length; only the queries below check it against the cap.

    Returns
    -------
    (2, n+1, n+1) read-only int64 array
        ``table[pk, end, h]`` counts valid prefixes with that end level and
        height, where pk = 1 for peakless sequences and 0 for the rest.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    table = _classify_halves(n)
    table.setflags(write=False)
    return table


def brute_force_count(n, constraints=None, cap=None):
    """Number of length-n paths satisfying the constraints, by full scan."""
    if constraints is None:
        constraints = PathConstraints()
    counts = height_counts(n, constraints.peakless, constraints.end_level, cap)
    top = constraints.max_height
    return sum(counts if top is None else counts[: top + 1])


def height_counts(n, peakless=False, end_level=0, cap=None):
    """Counts of length-n paths by exact height, as a plain list."""
    if end_level < 0:
        raise ValueError("end level must be nonnegative")
    check_oracle_length(n, cap)
    table = classification_table(n)
    if end_level > n:
        return [0]
    layers = table[1:] if peakless else table
    per_height = layers[:, end_level, :].sum(axis=0)
    out = [int(c) for c in per_height]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out
