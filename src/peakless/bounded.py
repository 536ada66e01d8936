"""Exact counting engines for peakless Motzkin paths of bounded height.

A(n, l) is the number of peakless Motzkin paths of length n whose height
stays <= l (the unbounded counts m(n) live in `counting`).  Everything
here is exact integer arithmetic, and every quantity is computed by at
least two independent routes so the engines can cross-check each other
and the brute-force oracle:

* `bounded_series_cf`: the bounded-height ladder
  A_l = 1 / (1 - z + z^2 - z^2 A_{l-1}) seeded with A_0 = 1/(1-z)
  (at the ceiling only flat runs are possible).
* `bounded_series_det`: the same ladder collapsed into a quotient of
  determinant polynomials of the strip transfer matrix, computed by a
  three-term polynomial recurrence and one exact series division.
* `bounded_column_dp`: dynamic programming over the two-layer automaton
  with levels capped at l, every level packed into one int so that one
  pass of n big-int steps yields A(0..n, l).  `bounded_counts_dp` gives
  A(n, l) alone for each of many bounds l: it joins the walks of length
  n // 2 at the middle, through one middle step for odd n, half the steps
  on slots half as wide, and every bound branches off one shared pass
  (`bounded_count_dp` is the one-bound call).  One loop, `_walk`, steps
  the shared pass and every branch; `bounded_column_dp` keeps its own,
  so the column and the join it is held to share no step code.

The three column engines return one format, the column A(0..n, l) as a
tuple of ints, and so do the column streams and `bounded_count_table`;
`series` is only the arithmetic of the ladder and the strip family.
They share one domain, and `_top` holds its rule for all of them: the
package's lower gate, `errors.check_sizes`, rejects a negative length or
bound, and `_top` clamps a bound above n // 2 to n // 2, because no path
of length <= n rises higher.

Each bounded engine is one stream of the columns l = 0, 1, ...: the ladder,
one run of the strip family (one quotient per column) or one automaton pass
per column.  `bounded_count_table` builds at most min(l, n/2) + 1 of them
and returns the columns themselves.
`height_distribution` reads A(n, l) for every l <= n/2 off the middle
joins of one shared-prefix pass.
Each printed quantity meets a second route in one `check_*` function:
`check_columns` (A(n, l) rows and tables) and `check_height_distribution`,
whose total meets `counting.check_far_end`; each calls its engines
through the module's globals.  Only the ladder and the strip family use
`series`, and they import it when called, so `height_distribution` and its
check load no `series`.

The strip transfer matrix is tridiagonal with diagonal z - z^2 - 1
(`STRIP_DIAGONAL`) and off-diagonal z, except that the row of the top
level has no -z^2 term (no excursion can rise above the ceiling), so its
diagonal entry is z - 1.  `determinant_poly` gives the determinants D_l of
the uncorrected all-equal tridiagonal matrix (D_0 = z - z^2 - 1,
D_1 = (1-z)^2 (1+z^2), ...); `strip_denominator_poly` gives the corrected
family E_l whose quotients -E_{l-1}/E_l are the true bounded generating
functions.  One recurrence runs, X_l = (z - z^2 - 1) X_{l-1} - z^2 X_{l-2}
from D_{-2} = 0 and D_{-1} = 1, in one generator, `strip_family`, that
yields the pairs (D_l, E_l), l = -1, 0, 1, ..., one polynomial product per
step.  It alone forms E_l = D_l + z^2 D_{l-1} from consecutive terms, since
both sides follow the recurrence and agree at l = -1 and l = 0.
`determinant_poly` and `strip_denominator_poly` read one pair of the run,
and each quotient -E_{l-1}/E_l divides two consecutive pairs.  The run has
the Chebyshev form of de Bruijn, Knuth & Rice (1972),

    D_l = sum_k C(l + 1 - k, k) (z - z^2 - 1)^(l + 1 - 2k) (-z^2)^k,

which `verify` holds D_{-1}..D_l of one `strip_family` run to.  The
uncorrected quotient first deviates from the true count at n = 2l + 2,
the shortest length at which a path can touch level l + 1.
"""
from collections import namedtuple
from itertools import count, islice, pairwise, repeat

from .errors import CROSS_CHECK_LIMIT, check_agreement, check_sizes

STRIP_DIAGONAL = (-1, 1, -1)  # z - z^2 - 1, the strip family's multiplier


def _top(bound, n):
    # the one bound rule of every engine: the gate rejects a negative length
    # or bound, and a bound above n // 2 is read as n // 2, since no path
    # of length <= n rises higher
    check_sizes("length", [n])
    check_sizes("bound", [bound])
    return min(bound, n // 2)


def bounded_series_cf(bound, order):
    """A(0..order, bound), a tuple of ints, from the ladder.

    Applies A_l = 1 / (1 - z + z^2 - z^2 A_{l-1}) starting from
    A_0 = 1/(1-z); coefficient n of A_bound is A(n, bound).  The bound
    follows `_top`, so at most order // 2 + 1 rungs.
    """
    return next(islice(_ladder(order), _top(bound, order), None))


def _ladder(order):
    # the columns A(0..order, l), l = 0, 1, ..., one Series inverse per rung
    from .series import Series

    a = Series((1, -1), order).inverse()
    q = Series((1, -1, 1), order)
    while True:
        yield a.coeffs
        a = (q - a.shift(2)).inverse()


def strip_family():
    """The pairs (D_l, E_l), l = -1, 0, 1, ..., of the strip run.

    From D_{-2} = 0 and D_{-1} = 1, one polynomial product per step; the
    only place that forms E_l = D_l + z^2 D_{l-1}.
    """
    from .series import poly_mul, poly_neg, poly_sub

    before, d = (0,), (1,)
    while True:
        yield d, poly_sub(d, (0, 0) + poly_neg(before))
        before, d = d, poly_sub(poly_mul(STRIP_DIAGONAL, d), (0, 0) + before)


def determinant_poly(bound):
    """Determinant D_l of the (l+1) x (l+1) tridiagonal matrix with
    diagonal z - z^2 - 1 and off-diagonal z; D_{-1} = 1 by convention.

    Term l of the one strip run, from D_{-2} = 0 and D_{-1} = 1: l + 1
    polynomial products.
    """
    check_sizes("index", [bound], least=-1)
    return next(islice(strip_family(), bound + 1, None))[0]


def strip_denominator_poly(bound):
    """Denominator E_l of the bounded-height generating function.

    The matrix row of the top level has no -z^2 term because nothing may
    rise above the ceiling, so expanding the determinant along that row
    gives E_l = D_l + z^2 D_{l-1}, read off the same run as
    `determinant_poly` (E_{-1} = 1, E_0 = z - 1), at the same l + 1
    products.  -E_{l-1}/E_l expands to the exact height <= l counts for
    every l >= 0.
    """
    check_sizes("index", [bound], least=-1)
    return next(islice(strip_family(), bound + 1, None))[1]


def bounded_series_det(bound, order):
    """A(0..order, bound), a tuple of ints, as a determinant quotient.

    Expands -E_{bound-1}/E_bound with one exact series division, the pair
    read off one run of the strip family: bound + 1 polynomial products.
    At z = 0 the three-term step reads D_l(0) = -D_{l-1}(0), so
    E_l(0) = D_l(0) = (-1)^{l+1} and the constant term -E_{l-1}(0)/E_l(0)
    is +1 for every l; a faulty family whose E_l(0) is no unit is an
    engine disagreement, not a division error.  Bound 0 is
    -E_{-1}/E_0 = 1/(1 - z).  The bound follows `_top`, so E_bound has at
    most order + 2 coefficients.
    """
    pairs = pairwise(strip_family())  # ((D, E)_{l-1}, (D, E)_l), l = 0, 1, ...
    return _strip_quotient(next(islice(pairs, _top(bound, order), None)), order)


def _strip_quotient(pair, order):
    # the column -E_{l-1}/E_l from consecutive terms ((D, E)_{l-1}, (D, E)_l)
    from .series import poly_divide_series, poly_neg

    (_, before), (_, den) = pair
    check_agreement(("strip family", "unit constant term"), [abs(den[0])], [1])
    return poly_divide_series(poly_neg(before), den, order).coeffs


def bounded_column_dp(bound, n_max):
    """A(0..n_max, bound), a tuple of ints, from one automaton pass.

    The top layer holds walks whose last step was flat or down, the bottom
    layer those whose last step was up (so the next step may not be down).
    Levels 0..bound of each layer are packed into one int, w bits per
    level, and one step updates every level with a few big-int operations:
    a flat step keeps the level, a down step (top layer only) shifts down
    one slot, an up step shifts up one slot and the mask drops the level
    above the bound.  A cell counts distinct step sequences of length at
    most n_max, so it stays below 3^n_max < 2^w and never carries into the
    next slot.  After step k the lowest top slot is A(k, bound): the bottom
    layer cannot be at level 0.  A walk above level n_max // 2 cannot
    return to 0 within n_max steps, so no level above that is kept either
    (`_top`): O(n_max) steps on ints of O(n_max * min(bound, n_max / 2)) bits.
    """
    levels = _top(bound, n_max) + 1
    w = (3**n_max).bit_length()
    slot = (1 << w) - 1
    keep = (1 << (w * levels)) - 1
    top, bot = 1, 0
    column = [1]
    for _ in range(n_max):
        both = top + bot
        top, bot = both + (top >> w), (both << w) & keep
        column.append(top & slot)
    return tuple(column)


def bounded_count_dp(n, bound):
    """A(n, bound) by joining half-length automaton walks at the middle.

    The one-bound call of `bounded_counts_dp`: its shared pass up to step
    min(bound, n // 2) and the branch after it make one masked pass of
    n // 2 steps.
    """
    return bounded_counts_dp(n, (bound,))[0]


def bounded_counts_dp(n, bounds):
    """[A(n, l) for l in bounds] by middle joins from one shared pass.

    One packed pass of `bounded_column_dp`'s step runs h = n // 2 steps
    from level 0; T_j and B_j then count the walks of length h that stay
    within levels 0..l and end at level j, in the top and the bottom
    layer.  Read backwards, with up and down swapped, a peakless path is
    still peakless (UD turns into UD) and visits the same levels, so the
    second half of a path is one such walk read backwards: a second half
    that starts with D is a walk that ends with U, in the bottom layer.
    Two halves meeting at level j join into a peakless path unless the
    first ends with U and the second starts with D, that is unless both
    end in the bottom layer.  For even n

        A(n, l) = sum_j (T_j + B_j)^2 - B_j^2 = sum_j T_j (T_j + 2 B_j).

    For odd n the two halves of h steps meet around one middle step.  With
    S_j = T_j + B_j: an F joins any two halves at level j, a U from j needs
    a second half that starts at j + 1 with no D (top layer), and a D to j
    needs a first half that ends at j + 1 with no U (top layer), so

        A(n, l) = sum_j S_j (S_j + 2 T_{j+1}),   T_{l+1} = 0.

    No level above h can return to 0 in h steps, so a bound past h is read
    as h (`_top`).  A walk of l steps from level 0 stays within levels
    0..l, so bound l's mask keeps every cell of the first l steps, and all
    bounds share one pass, taken in increasing order: at step l it holds
    bound l's own state, which finishes the h - l masked steps and is
    joined before the pass goes on.  One loop, `_walk`, takes the steps of
    the pass and of each branch under that bound's mask, and `_join` only
    joins; only that one branch is kept beside the pass.  Cells, and the
    sums S_j of the two layers, stay within 3^h; each takes a slot of whole
    bytes, so a layer's counts are read off its `to_bytes` in linear time.
    """
    h, odd = _top(n, n), n % 2  # every bound from h up is read as h
    tops = [_top(l, n) for l in bounds]
    size = ((3**h).bit_length() + 7) // 8  # bytes per slot
    joins = {}
    top, bot, done = 1, 0, 0
    for bound in sorted(set(tops)):
        levels = bound + 1
        top, bot = _walk(top, bot, bound - done, size, levels)
        done = bound
        joins[bound] = _join(*_walk(top, bot, h - bound, size, levels), odd, size, levels)
    return [joins[l] for l in tops]


def _walk(top, bot, steps, size, levels):
    # take `steps` packed automaton steps on slots of `size` bytes, keeping
    # levels 0..levels-1: the one step loop of the shared pass and each branch
    w = 8 * size
    keep = (1 << (w * levels)) - 1
    for _ in range(steps):
        both = top + bot
        top, bot = both + (top >> w), (both << w) & keep
    return top, bot


def _join(top, bot, odd, size, levels):
    # even n: sum_j T_j (T_j + 2 B_j); odd n: sum_j S_j (S_j + 2 T_{j+1})
    x, y = (top + bot, top >> 8 * size) if odd else (top, bot)
    xs, ys = _cells(x, size, levels), _cells(y, size, levels)
    return sum(a * (a + 2 * b) for a, b in zip(xs, ys))


def _cells(packed, size, levels):
    # the counts at levels 0..levels-1 of one packed layer, size bytes each
    data = packed.to_bytes(size * levels, "little")
    starts = range(0, len(data), size)
    return [int.from_bytes(data[i : i + size], "little") for i in starts]


# each stream yields the columns A(0..n, l), l = 0, 1, ..., as tuples of ints
COLUMN_STREAMS = {
    "cf": _ladder,
    "det": lambda n: map(_strip_quotient, pairwise(strip_family()), repeat(n)),
    "dp": lambda n: map(bounded_column_dp, count(), repeat(n)),
}
# the engine of each column stream, as disagreements name it
COLUMN_NAMES = {"cf": "ladder", "det": "strip family", "dp": "automaton"}


def bounded_count_table(n_max, l_max, method):
    """Columns of A(n, l): l_max + 1 tuples with table[l][n] = A(n, l).

    Each column holds A(0..n_max, l).  method names a column stream of
    `COLUMN_STREAMS`: "cf" (the ladder), "det" (the strip family) or "dp"
    (the automaton), and the three give equal tables.  A bound above
    n_max // 2 is read as that one (`_top`), so wider columns repeat it.
    """
    if method not in COLUMN_STREAMS:
        raise ValueError(f"unknown method {method!r}")
    columns = list(islice(COLUMN_STREAMS[method](n_max), _top(l_max, n_max) + 1))
    return columns + columns[-1:] * (l_max + 1 - len(columns))


class HeightStats(namedtuple("HeightStats", "n distribution expected_height")):
    """Exact height statistics of the peakless Motzkin paths of length n."""

    __slots__ = ()

    @property
    def expected_height_float(self):
        return float(self.expected_height)


def height_distribution(n):
    """Distribution of heights among peakless Motzkin paths of length n.

    distribution[l] is the number of such paths of height exactly l,
    computed as A(n, l) - A(n, l-1) from the middle joins of every bound
    l <= n/2, all from one shared pass (`bounded_counts_dp`); trailing zero
    entries are trimmed.  The expectation is the exact rational
    sum(l * distribution[l]) / m(n).
    """
    from fractions import Fraction  # only here: the other engines are ints

    dist = []
    prev = 0
    for count in bounded_counts_dp(n, range(n // 2 + 1)):
        dist.append(count - prev)
        prev = count
    total = prev  # A(n, floor(n/2)) = m(n), the bound is inactive beyond it
    while len(dist) > 1 and dist[-1] == 0:
        dist.pop()
    expected = Fraction(sum(l * c for l, c in enumerate(dist)), total)
    return HeightStats(n=n, distribution=tuple(dist), expected_height=expected)


def check_columns(columns, n, bound, method):
    """Hold columns A(0..n, l), l = bound - len(columns) + 1..bound, of the
    `method` stream to two routes.

    The last column's first 201 terms meet the strip family, or the
    automaton column for "det", whose columns are the strip family's own
    quotients, and the last term of each distinct column, the last first,
    the middle join.
    """
    route = COLUMN_NAMES[method]
    checked = columns[-1][: CROSS_CHECK_LIMIT + 1]
    order = len(checked) - 1
    if method == "det":
        other, values = "automaton", bounded_column_dp(bound, order)
    else:
        other, values = "strip family", bounded_series_det(bound, order)
    check_agreement((route, other), checked, values, f" for bound={bound}")
    first = bound + 1 - len(columns)
    # columns past n // 2 repeat that one, so a huge bound costs n // 2 + 1 joins
    bounds = (bound, *range(_top(bound, n) - 1, first - 1, -1))
    names = (f"{route} column", "middle join")
    for l, join in zip(bounds, bounded_counts_dp(n, bounds)):
        where = f" for bound={l} at n={n}"
        check_agreement(names, columns[l - first][-1:], [join], where, start=n)


def check_height_distribution(stats):
    """Hold a height distribution to its free invariants and its total,
    A(n, n/2) = m(n), to the closed form.

    A height-h peakless path needs at least 2h + 1 steps, because its summit
    needs a flat step, and U^h F D^h F... reaches it; so for n >= 1 there
    are exactly (n - 1)//2 + 1 heights, each count is positive, and height 0
    counts only the all-flat path.  A wrong middle join at a bound below the
    top that keeps these facts cancels in the total and is not caught.
    """
    from . import counting  # only the totals meet the closed form

    n, dist = stats.n, stats.distribution
    heights = (n - 1) // 2 + 1 if n else 1
    # height 0 counts one path, and min(c, 1) reads 1 at every positive count
    held = [dist[0], *(min(c, 1) for c in dist[1:])]
    names = ("height distribution", "free invariants")
    check_agreement(names, held, [1] * heights, f" at n={n}", index="height")
    counting.check_far_end("height distribution total", sum(dist), n)
