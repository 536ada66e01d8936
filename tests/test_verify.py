import pytest

from peakless import bounded, counting, verify
from peakless.errors import EngineDisagreement, check_agreement
from peakless.series import Series


def test_quick_suite_passes():
    results = verify.run_checks("quick")
    failures = [r for r in results if not r["ok"]]
    assert failures == []
    names = {r["check"] for r in results}
    assert {"five_way_agreement", "sequence_fixture", "pretty_cf"} <= names


def test_full_suite_passes():
    results = verify.run_checks("full")
    assert all(r["ok"] for r in results), [r for r in results if not r["ok"]]
    assert {"table_invariants"} <= {r["check"] for r in results}


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        verify.run_checks("paranoid")


def test_corrupted_determinant_engine_is_named(monkeypatch):
    # a sign slip in the determinant quotient must be caught and attributed
    def broken(bound, order):
        good = bounded.bounded_series_cf(bound, order)
        flipped = list(good.coeffs)
        flipped[-1] = -flipped[-1]
        return Series(flipped, order)

    monkeypatch.setattr(bounded, "bounded_series_det", broken)
    results = verify.run_checks("quick")
    failures = [r for r in results if not r["ok"]]
    assert failures, "corruption went unnoticed"
    assert any("bounded_series_det" in r["detail"] for r in failures)


def test_crashing_engine_becomes_failure(monkeypatch):
    def explode(order):
        raise RuntimeError("boom")

    monkeypatch.setattr(counting, "kernel_root_series", explode)
    results = verify.run_checks("quick")
    by_name = {r["check"]: r for r in results}
    assert not by_name["kernel_identities"]["ok"]
    assert "boom" in by_name["kernel_identities"]["detail"]


def test_height_stats_held_to_the_oracle(monkeypatch):
    # a distribution wrong at one length past the fixed n = 4 example
    real = bounded.height_distribution

    def skewed(n):
        stats = real(n)
        if n != 9:
            return stats
        shifted = (stats.distribution[0] + 1,) + stats.distribution[1:]
        return stats._replace(distribution=shifted)

    monkeypatch.setattr(bounded, "height_distribution", skewed)
    by_name = {r["check"]: r for r in verify.run_checks("quick")}
    assert not by_name["height_stats"]["ok"]
    assert "n=9" in by_name["height_stats"]["detail"]


def test_recurrence_fault_is_located(monkeypatch):
    # a recurrence wrong at one index is reported with that index and both values
    real = counting.peakless_recurrence

    def skewed(n_max):
        values = real(n_max)
        if n_max >= 7:
            values[7] += 1
        return values

    monkeypatch.setattr(counting, "peakless_recurrence", skewed)
    by_name = {r["check"]: r for r in verify.run_checks("quick")}
    detail = by_name["five_way_agreement"]["detail"]
    assert not by_name["five_way_agreement"]["ok"]
    assert "n=7" in detail
    assert "series 37, recurrence 38" in detail


def test_check_agreement():
    assert check_agreement(("a", "b"), [1, 2, 3], (1, 2, 3)) is None
    with pytest.raises(EngineDisagreement, match="a has 3 terms, b 2"):
        check_agreement(("a", "b"), [1, 2, 3], [1, 2])
    with pytest.raises(
        EngineDisagreement,
        match=r"disagreement at x: 1 mismatching terms, first n=1: a 2, b 5$",
    ):
        check_agreement(("a", "b"), [1, 2, 3], [1, 5, 3], " at x")
