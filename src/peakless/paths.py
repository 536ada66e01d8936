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

`enumerate_paths` is the exhaustive generator used as ground truth by the
tests; the counting engines in `counting` must reproduce whatever it says.
Every brute-force entry point, here and in `oracle`, checks the length
against the cap in one place, `check_oracle_length`, which is the
package's one budget gate `ResourceLimitError.check` raising
OracleLimitError.
"""
import os
from dataclasses import dataclass

from .errors import OracleLimitError

UP = "U"
DOWN = "D"
FLAT = "F"

STEP_INCREMENTS = {FLAT: 0, UP: 1, DOWN: -1}

# enumeration order of steps; fixes the lexicographic order of output paths
STEP_ORDER = (FLAT, UP, DOWN)

DEFAULT_ORACLE_CAP = 16
ORACLE_CAP_ENV = "PEAKLESS_ORACLE_CAP"


def oracle_cap():
    """Brute-force length cap: PEAKLESS_ORACLE_CAP env var or the default."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None


def check_oracle_length(n, cap=None):
    """The budget gate for brute force; the cap defaults to `oracle_cap()`."""
    cap = oracle_cap() if cap is None else cap
    OracleLimitError.check("brute-force length", [n], cap)


@dataclass(frozen=True)
class PathConstraints:
    """Filter for path enumeration and brute-force counting.

    peakless    require the path to contain no UD factor
    max_height  if set, require every level p_i <= max_height
    end_level   required final level (validity, p_i >= 0, always applies)
    """

    peakless: bool = False
    max_height: int | None = None
    end_level: int = 0

    def __post_init__(self):
        if self.end_level < 0:
            raise ValueError("end_level must be nonnegative")
        if self.max_height is not None:
            if self.max_height < 0:
                raise ValueError("max_height must be nonnegative")
            if self.end_level > self.max_height:
                raise ValueError("end_level cannot exceed max_height")


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
    """True if some up-step is immediately followed by a down-step."""
    return any(a == UP and b == DOWN for a, b in zip(path, path[1:]))


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


def enumerate_paths(n, constraints=None, cap=None):
    """Yield every length-n path satisfying the constraints, in lex order.

    Paths are emitted in lexicographic order under F < U < D.  Validity
    (never below level 0) always applies on top of the constraints.  The
    search is exhaustive with pruning, so it is the ground-truth oracle;
    lengths beyond the cap (default 16) raise OracleLimitError from
    `check_oracle_length` because the 3^n search space becomes unreasonable.
    """
    if constraints is None:
        constraints = PathConstraints()
    check_oracle_length(n, cap)
    if n < 0:
        raise ValueError("length must be nonnegative")

    end = constraints.end_level
    bound = constraints.max_height
    peakless = constraints.peakless

    def walk(prefix, level, remaining):
        if remaining == 0:
            if level == end:
                yield "".join(prefix)
            return
        last = prefix[-1] if prefix else None
        for step in STEP_ORDER:
            new_level = level + STEP_INCREMENTS[step]
            if new_level < 0:
                continue
            if bound is not None and new_level > bound:
                continue
            if peakless and last == UP and step == DOWN:
                continue
            # must still be able to reach the end level in remaining-1 steps
            if abs(new_level - end) > remaining - 1:
                continue
            prefix.append(step)
            yield from walk(prefix, new_level, remaining - 1)
            prefix.pop()

    yield from walk([], 0, n)
