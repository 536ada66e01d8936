import itertools
import time

import pytest

from peakless import counting
from peakless.errors import OracleLimitError, ResourceLimitError
from peakless.paths import (
    PathConstraints,
    automaton_accepts,
    enumerate_paths,
    has_peak,
    height,
    is_valid_prefix,
    level_profile,
)


def test_level_profile_examples():
    assert level_profile("") == [0]
    assert level_profile("UUDD") == [0, 1, 2, 1, 0]
    assert level_profile("UFDF") == [0, 1, 1, 0, 0]


def test_height_examples():
    # heights of the nine length-4 Motzkin paths range over 0, 1, 2
    assert height("FFFF") == 0
    assert height("UUDD") == 2
    assert height("UFDF") == 1
    assert height("") == 0


def test_height_rejects_dipping_path():
    with pytest.raises(ValueError):
        height("DU")


@pytest.mark.parametrize(
    "fn", [level_profile, is_valid_prefix, height, automaton_accepts]
)
@pytest.mark.parametrize("path,step", [("UXD", "X"), ("ud", "u"), ("F D", " ")])
def test_unknown_step_rejected(fn, path, step):
    # a step outside U/D/F is an error, not a silent flat step
    with pytest.raises(ValueError, match=f"unknown step {step!r}"):
        fn(path)


def test_has_peak_examples():
    assert has_peak("UUDD")
    assert not has_peak("UFDF")
    assert not has_peak("")
    assert has_peak("FUDF")


def test_automaton_examples():
    assert automaton_accepts("UFDF") == (True, 0)
    assert automaton_accepts("UDFF")[0] is False
    assert automaton_accepts("DFFF")[0] is False
    assert automaton_accepts("UU") == (True, 2)
    assert automaton_accepts("") == (True, 0)


def test_automaton_equivalence_exhaustive():
    # acceptance == (valid prefix and no peak), checked over every sequence
    # of length <= 12; accepted walks also report the walk's end level and
    # Motzkin paths never exceed height floor(n/2).  A depth-first walk
    # carries each word's level, minimum, maximum and UD flag forward one
    # step at a time, and holds that state to level_profile and has_peak on
    # every word of length <= 10
    def visit(words):
        for path, level, low, high, peak in words:
            n = len(path)
            if n <= 10:
                profile = level_profile(path)
                assert (profile[-1], min(profile), max(profile)) == (level, low, high)
                assert has_peak(path) == peak, path
            valid = low >= 0
            accepted, end = automaton_accepts(path)
            assert accepted == (valid and not peak), path
            if accepted:
                assert end == level, path
            if valid and level == 0:
                assert high <= n // 2, path
            if n < 12:
                up, down = level + 1, level - 1
                peak_at_d = peak or path.endswith("U")
                visit(
                    (
                        (path + "F", level, low, high, peak),
                        (path + "U", up, low, max(high, up), peak),
                        (path + "D", down, min(low, down), high, peak_at_d),
                    )
                )

    visit([("", 0, 0, 0, False)])


def test_counts_match_count_engines():
    for n in range(13):
        everything = list(enumerate_paths(n))
        assert len(everything) == counting.motzkin_numbers(n)[n]
    for n in range(13):
        peakless = list(enumerate_paths(n, PathConstraints(peakless=True)))
        assert len(peakless) == counting.peakless_series(n)[n]


def test_enumeration_order_and_uniqueness():
    figure = list(enumerate_paths(4, PathConstraints(peakless=True)))
    assert figure == ["FFFF", "FUFD", "UFFD", "UFDF"]
    rank = {"F": 0, "U": 1, "D": 2}
    for constraints in (
        PathConstraints(),
        PathConstraints(peakless=True),
        PathConstraints(peakless=True, max_height=2),
        PathConstraints(end_level=2),
    ):
        for n in range(9):
            out = list(enumerate_paths(n, constraints))
            assert len(set(out)) == len(out)
            keyed = [[rank[c] for c in p] for p in out]
            assert keyed == sorted(keyed)


def test_enumerate_respects_all_constraints():
    # the listing is the ordered filter of all 3^n step sequences, which
    # itertools.product yields in F < U < D order
    for n in range(11):
        profiles = []
        for steps in itertools.product("FUD", repeat=n):
            levels = level_profile(steps)
            if min(levels) >= 0:
                path = "".join(steps)
                profiles.append((path, levels, has_peak(path)))
        for peakless, bound, end in itertools.product(
            (False, True), (None, 0, 1, 2, 3, 4, n), range(4)
        ):
            if bound is not None and end > bound:
                continue
            constraints = PathConstraints(peakless, bound, end)
            want = [
                path
                for path, levels, peak in profiles
                if levels[-1] == end
                and (bound is None or max(levels) <= bound)
                and not (peakless and peak)
            ]
            assert list(enumerate_paths(n, constraints)) == want, constraints


def test_huge_bound_costs_what_the_length_does():
    start = time.perf_counter()
    got = list(enumerate_paths(12, PathConstraints(max_height=10**9)))
    assert got == list(enumerate_paths(12))
    assert time.perf_counter() - start < 5


def test_empty_length():
    assert list(enumerate_paths(0)) == [""]
    assert list(enumerate_paths(0, PathConstraints(end_level=1))) == []


def test_oracle_cap():
    # every error is raised at the call, before the first path is asked for
    with pytest.raises(OracleLimitError):
        enumerate_paths(17)
    with pytest.raises(OracleLimitError):
        enumerate_paths(5, cap=4)
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_paths(-1)
    assert len(list(enumerate_paths(5, cap=5))) == 21


def test_budget_gate_boundary():
    # n == cap passes, n == cap + 1 raises the class the gate is called on
    ResourceLimitError.check("report", [3, 5], 5)
    OracleLimitError.check("brute-force length", [5], 5)
    with pytest.raises(OracleLimitError, match=r"n <= 5; out of budget: \[6\]$"):
        OracleLimitError.check("brute-force length", [6], 5)
    with pytest.raises(ResourceLimitError, match=r"out of budget: \[6, 7\]$"):
        ResourceLimitError.check("report", [5, 6, 7], 5)
    with pytest.raises(ValueError, match="^report cap must be nonnegative, got -1$"):
        ResourceLimitError.check("report", [], -1)


def test_constraint_validation():
    with pytest.raises(ValueError):
        PathConstraints(end_level=-1)
    with pytest.raises(ValueError):
        PathConstraints(max_height=-1)
    with pytest.raises(ValueError):
        PathConstraints(max_height=1, end_level=2)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(end_level=-1), "end level must be nonnegative, got -1"),
        (dict(max_height=-1), "bound must be nonnegative, got -1"),
        (dict(max_height=1, end_level=2), "end level cannot exceed bound"),
    ],
)
def test_constraint_messages(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PathConstraints(**fields)
    with pytest.raises(ValueError, match=f"^{message}$"):  # replacing validates too
        PathConstraints(peakless=True)._replace(**fields)
