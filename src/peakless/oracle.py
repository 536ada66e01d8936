"""Brute-force classification of all 3^n step sequences of a given length.

This is the test oracle: every sequence over {F, U, D} is accounted for
and, when it never dips below level 0, binned by

    (peakless?, end level, height)

into a table of exact ints.  Any constrained count (Motzkin paths,
peakless paths, bounded height, chosen end level) is then a partial sum
of table cells.

The kernel splits each sequence into two halves.  It scans all 3^(n/2)
sequences of each half length, groups the halves into classes with
multiplicities, and combines every pair of classes by the concatenation
law, so each of the 3^n sequences is counted exactly once without being
walked.  A half length is scanned once per process, each scan extending
the one a step shorter, and shared by every table that splits off a half
of that length (the tables n <= 14 read 8 scans, not 30).  Nothing here
comes from the automaton or the counting engines.
The tests hold the kernel to a reference loop over one sequence at a
time.  `height_counts` is the one query; it checks the length against
`oracle_cap()` (PEAKLESS_ORACLE_CAP or 16) with `paths.check_oracle_length`.

Step digit coding, shared with the enumeration order in `paths`:
0 = flat, 1 = up, 2 = down.
"""
from collections import Counter
from functools import cache, lru_cache

from .paths import PathConstraints, check_oracle_length


@cache
def _half_scan(m):
    """Statistics of each of the 3^m step sequences of length m.

    Sequence i takes step j from base-3 digit j of i, so the scan of
    length m appends step m - 1 to every sequence of the scan of length
    m - 1.  Every length is scanned once per process and kept, read-only:
    the halves of lengths n and n + 1 share one, and all lengths up to the
    default cap of 16 hold fewer than 3^9 tuples together.  Returns one
    tuple per sequence: (end level, lowest level, highest level, has a UD
    factor, first step is D, last step is U), the lowest and highest
    levels counting the start at 0.
    """
    if m == 0:
        return ((0, 0, 0, False, False, False),)
    return tuple(
        (e + s, min(lo, e + s), max(hi, e + s), pk or (up and s < 0),
         fd if m > 1 else s < 0, s > 0)
        for s in (0, 1, -1)  # digit 0, 1, 2
        for e, lo, hi, pk, fd, up in _half_scan(m - 1)
    )


def _classify_halves(n):
    # A prefix of a = ceil(n/2) steps followed by a suffix of b = n - a
    # steps is a valid prefix iff the prefix never dips below 0 and
    # pend + smin >= 0.  Its end is pend + send, its height
    # max(ph, pend + smax), and it has a peak iff either half has one or
    # the seam reads UD.
    a = (n + 1) // 2
    prefixes = Counter(
        (end, hi, pk, up) for end, lo, hi, pk, _, up in _half_scan(a) if lo >= 0
    )
    suffixes = Counter(
        (end, -lo, hi, pk, down) for end, lo, hi, pk, down, _ in _half_scan(n - a)
    )
    counts = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(2)]
    # every prefix class against every suffix class
    for (pend, ph, pp, pu), pw in prefixes.items():
        for (send, sneg, smax, sp, sd), sw in suffixes.items():
            if pend >= sneg:
                peakless = 0 if pp or sp or (pu and sd) else 1
                counts[peakless][pend + send][max(ph, pend + smax)] += pw * sw
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
    tuple of 2 x (n+1) x (n+1) nested tuples of exact ints
        ``table[pk][end][h]`` counts valid prefixes with that end level and
        height, where pk = 1 for peakless sequences and 0 for the rest.
        Tuples keep the cached table read-only.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    return tuple(tuple(map(tuple, layer)) for layer in _classify_halves(n))


def brute_force_count(n, constraints=None):
    """Number of length-n paths satisfying the constraints, by full scan."""
    if constraints is None:
        constraints = PathConstraints()
    counts = height_counts(n, constraints.peakless, constraints.end_level)
    top = constraints.max_height
    return sum(counts if top is None else counts[: top + 1])


def height_counts(n, peakless=False, end_level=0):
    """Counts of length-n paths by exact height, as a plain list."""
    if end_level < 0:
        raise ValueError("end level must be nonnegative")
    check_oracle_length(n)
    table = classification_table(n)
    if end_level > n:
        return [0]
    layers = table[1:] if peakless else table
    out = [sum(cells) for cells in zip(*(layer[end_level] for layer in layers))]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out
