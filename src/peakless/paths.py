"""Lattice paths over the step alphabet U (up), D (down), F (flat).

A path is a string such as "UFDF"; the empty string is the empty path.
Walking the steps from the origin gives the level profile p_0=0, p_1, ...,
p_n.  A path is a valid prefix if it never dips below level 0, and a
Motzkin path if it also ends at level 0.  A peak is an up-step immediately
followed by a down-step; Motzkin paths avoiding that factor are "peakless"
and are counted by OEIS A004148.

Peakless valid prefixes are exactly the walks accepted by a two-layer
automaton: state (layer, level) where the bottom layer means "the previous
step was an up-step".  From the top layer at level i, a flat step stays at
top/i, a down-step moves to top/i-1, an up-step moves to bottom/i+1.  From
the bottom layer a down-step is forbidden (it would close a peak); flat
moves to top/i and up moves to bottom/i+1.  The walk starts at top/0 and
must never leave level >= 0.

`enumerate_paths` is the exhaustive listing used as ground truth by the
tests; the counting engines in `counting` must reproduce whatever it says.
It splits each path in halves: a lex-ordered list of the half-length
prefixes, each with its end state, and for every state the lex-ordered
list of suffixes that finish the path admissibly from it, the seam
included.  Every prefix has the same length, so prefix order then suffix
order is the F < U < D lex order of the whole paths.  `prefix_blocks`
returns those tables as (prefix, suffixes) blocks: the CLI writes each
block as one string, the prefix joined to every suffix, and
`enumerate_paths` yields the same paths one concatenation at a time.
Both tables are built, and every argument checked, when either is
called; only the concatenations are lazy.
Every brute-force entry point, here and in `oracle`, checks the length
against the cap in one place, `errors.check_oracle_length`, which is the
package's one budget gate `ResourceLimitError.check` raising
OracleLimitError.
"""
from collections import namedtuple

from .errors import DEFAULT_ORACLE_CAP, check_oracle_length, check_sizes

UP = "U"
DOWN = "D"
FLAT = "F"

STEP_INCREMENTS = {FLAT: 0, UP: 1, DOWN: -1}


class PathConstraints(namedtuple("PathConstraints", "peakless max_height end_level")):
    """Filter for path enumeration and brute-force counting.

    peakless    require the path to contain no UD factor
    max_height  if set, require every level p_i <= max_height
    end_level   required final level (validity, p_i >= 0, always applies)
    """

    __slots__ = ()

    def __new__(cls, peakless=False, max_height=None, end_level=0):
        check_sizes("end level", [end_level])
        if max_height is not None:
            check_sizes("bound", [max_height])
            if end_level > max_height:
                raise ValueError("end level cannot exceed bound")
        return super().__new__(cls, peakless, max_height, end_level)

    @classmethod
    def _make(cls, iterable):
        # so that `_replace` validates too
        return cls(*iterable)


def _unknown_step(step):
    return ValueError(f"unknown step {step!r}: a path is a string over U, D, F")


def level_profile(path):
    """Levels p_0..p_n visited along the path, starting from p_0 = 0."""
    levels = [0]
    for step in path:
        if step not in STEP_INCREMENTS:
            raise _unknown_step(step)
        levels.append(levels[-1] + STEP_INCREMENTS[step])
    return levels


def is_valid_prefix(path):
    """True if the walk never goes below level 0."""
    return min(level_profile(path)) >= 0


def height(path):
    """Maximal level along the path.  Rejects walks that dip below 0."""
    levels = level_profile(path)
    if min(levels) < 0:
        raise ValueError(f"path {path!r} goes below the axis")
    return max(levels)


def has_peak(path):
    """True if some up-step is immediately followed by a down-step: the
    path has the factor UD."""
    return UP + DOWN in path


def automaton_accepts(path):
    """Run the two-layer peakless automaton.

    Returns (accepted, end_level).  Accepted means no forbidden move was
    taken and the walk never left level >= 0; the end level is reported for
    either layer.  On rejection the walk stops and the level reached before
    the offending step is reported (only the boolean is meaningful then).

    Acceptance is equivalent to: valid prefix and no peak.  Recognizing a
    peakless Motzkin path additionally requires end_level == 0.
    A step other than U, D or F raises ValueError when the walk reaches it.
    """
    level = 0
    bottom = False  # bottom layer: previous step was an up-step
    for step in path:
        if step == UP:
            level += 1
            bottom = True
        elif step == DOWN:
            if bottom or level == 0:
                return False, level
            level -= 1
        elif step == FLAT:
            bottom = False
        else:
            raise _unknown_step(step)
    return True, level


def enumerate_paths(n, constraints=None, cap=DEFAULT_ORACLE_CAP):
    """Every length-n path satisfying the constraints, in lex order.

    Paths come in lexicographic order under F < U < D.  Validity (never
    below level 0) always applies on top of the constraints.  The listing
    is exhaustive, so it is ground truth for the counting engines.

    The paths are those of `prefix_blocks`, so every error is raised at
    the call, before the first path; only the concatenations are lazy:
    the returned iterator yields `prefix + suffix` one path at a time.
    """
    blocks = prefix_blocks(n, constraints, cap)
    return (prefix + rest for prefix, rests in blocks for rest in rests)


def prefix_blocks(n, constraints=None, cap=DEFAULT_ORACLE_CAP):
    """The listing of `enumerate_paths` as blocks of one shared prefix.

    A path is a prefix of a = n // 2 steps followed by a suffix of the
    other b = n - a steps.  The prefix list holds every admissible prefix
    in lex order with its state: its end level and, for peakless paths,
    whether its last step is U.  The suffix table maps each state to the
    lex-ordered list of suffixes that, started in that state, stay in
    [0, bound], close no UD factor (a D right after a U-ended prefix
    included) and finish at the end level.  Because all prefixes have one
    length, prefix order then suffix order is the lex order of the paths.

    Returns the list of (prefix, suffixes) pairs in that order, leaving
    out prefixes no suffix finishes; states share their suffix lists.
    The length is checked against the cap (default 16;
    OracleLimitError from `check_oracle_length`) and both tables are
    built here, so every error is raised at the call.
    """
    if constraints is None:
        constraints = PathConstraints()
    check_oracle_length(n, cap)
    check_sizes("length", [n])

    end = constraints.end_level
    peakless = constraints.peakless
    # no level above n is reachable, so a huge bound costs what n does
    top = n if constraints.max_height is None else min(constraints.max_height, n)

    def moves(level, after_up):
        # (step, new level, new state flag); F < U < D here fixes the
        # lex order of the output
        yield FLAT, level, False
        if level < top:
            yield UP, level + 1, peakless
        if level > 0 and not after_up:
            yield DOWN, level - 1, False

    a = n // 2
    prefixes = [("", 0, False)]
    for _ in range(a):
        prefixes = [
            (path + step, new, flag)
            for path, level, after_up in prefixes
            for step, new, flag in moves(level, after_up)
        ]

    # suffixes[(level, after_up)] after k rounds: the admissible length-k
    # suffixes from that state, in lex order
    states = [(level, flag) for level in range(top + 1) for flag in {False, peakless}]
    suffixes = {state: [""] if state[0] == end else [] for state in states}
    for _ in range(n - a):
        suffixes = {
            state: [
                step + rest
                for step, new, flag in moves(*state)
                for rest in suffixes[new, flag]
            ]
            for state in states
        }

    return [
        (path, rests)
        for path, level, after_up in prefixes
        if (rests := suffixes[level, after_up])
    ]
