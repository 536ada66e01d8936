import pytest

from peakless import bounded, counting, oracle, paths, series, verify
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
    # a sign slip in the det column stream's quotient must be caught and
    # attributed
    real = bounded._strip_quotient

    def broken(pair, order):
        flipped = list(real(pair, order))
        flipped[-1] = -flipped[-1]
        return tuple(flipped)

    monkeypatch.setattr(bounded, "_strip_quotient", broken)
    results = verify.run_checks("quick")
    failures = [r for r in results if not r["ok"]]
    assert failures, "corruption went unnoticed"
    assert any("strip family" in r["detail"] for r in failures)


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
    assert "functional equation 37, recurrence 38" in detail


# check -> (its run, {module attribute: most calls}): one strip run of
# D_{-1}..D_40 (41 products) and the bound-1 quotient (2), one table per
# column engine (8 ladder inverses, 8 det quotients) and one height census
# per length, one end-level walk, plus the kernel root's own F
FAMILY_WORK = {
    "determinant_fixtures": (
        lambda: verify.check_determinants(40), {(series, "poly_mul"): 43}
    ),
    "five_way_agreement": (
        lambda: verify.check_five_way(14, 7),
        {(oracle, "height_counts"): 15, (series, "poly_divide_series"): 16},
    ),
    "kernel_identities": (
        lambda: verify.check_kernel_identities(200),
        {(counting, "peakless_series"): 2},
    ),
    "end_level_counts": (
        lambda: verify.check_end_levels(10), {(counting, "peakless_series"): 1}
    ),
}


@pytest.mark.parametrize("check", sorted(FAMILY_WORK))
def test_each_check_runs_each_family_once(monkeypatch, check):
    # calls counted through the module attributes the engines look up, so
    # the products count those of the strip family, not verify's own
    run, most = FAMILY_WORK[check]
    calls = dict.fromkeys(most, 0)

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapper

    for module, name in most:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, counted((module, name), real))
    run()
    for (module, name), limit in most.items():
        assert 0 < calls[module, name] <= limit, (name, calls[module, name])


def test_check_agreement():
    assert check_agreement(("a", "b"), [1, 2, 3], (1, 2, 3)) is None
    with pytest.raises(EngineDisagreement, match="a has 3 terms, b 2"):
        check_agreement(("a", "b"), [1, 2, 3], [1, 2])
    with pytest.raises(
        EngineDisagreement,
        match=r"disagreement at x: 1 mismatching terms, first n=1: a 2, b 5$",
    ):
        check_agreement(("a", "b"), [1, 2, 3], [1, 5, 3], " at x")


# the names `perfbench/traced.py` lists in VERIFY_CHECKS, in suite order
FULL_CHECKS = [
    "path_predicates",
    "automaton",
    "enumeration",
    "sequence_fixture",
    "five_way_agreement",
    "end_level_counts",
    "determinant_fixtures",
    "height_stats",
    "pretty_cf",
    "kernel_identities",
    "recurrence_exactness",
    "table_invariants",
]


def test_run_checks_reads_the_level_hook(monkeypatch):
    # a tracer rebinds verify.checks_for_level and wraps each callable
    real, calls = verify.checks_for_level, []

    def recording(level):
        def wrap(name, fn):
            return lambda: calls.append((level, name)) or fn()

        return [(name, wrap(name, fn)) for name, fn in real(level)]

    monkeypatch.setattr(verify, "checks_for_level", recording)
    for level, names in (("quick", FULL_CHECKS[:11]), ("full", FULL_CHECKS)):
        calls.clear()
        records = verify.run_checks(level)
        assert [r["check"] for r in records] == names
        assert calls == [(level, name) for name in names]


def _skew_last(fn, when, delta=1):
    def skewed(*args):
        values = list(fn(*args))
        if when(*args):
            values[-1] += delta
        return values

    return skewed


def _skew_table(real):
    def skewed(n_max, l_max, method):
        columns = list(real(n_max, l_max, method))
        if n_max == 60:  # A(40, 30) lies past the active range of row 40
            columns[30] = list(columns[30])
            columns[30][40] += 1
        return columns

    return skewed


def _skew_height(real):
    def skewed(n):
        stats = real(n)
        return stats._replace(expected_height=1) if n == 0 else stats

    return skewed


def _skew_kernel(real):
    def skewed(u):
        residual = real(u)
        return residual + Series((0, 0, 0, 1), residual.order)

    return skewed


def _skew_stream(at):
    # h_at off by z^5: at 4 the relation fails at k = 4, 5 and 6
    def fault(real):
        def skewed(order):
            for k, h in enumerate(real(order)):
                yield h + Series((0,) * 5 + (1,), order) if k == at else h

        return skewed

    return fault


def _skew_strip(at, slip):
    # the pair (D_at, E_at) of the strip run, one of its two members slipped
    def fault(real):
        def skewed():
            for l, pair in enumerate(real(), -1):
                yield slip(*pair) if l == at else pair

        return skewed

    return fault


def _accept_d(real):
    return lambda path: (True, 0) if path == "D" else real(path)


def _skew_always(real):
    return _skew_last(real, lambda *args: True)


# check[/variant] -> (level, module, attribute, fault, the two routes its
# failure names)
FAULTS = {
    "path_predicates": (
        "quick", paths, "height", lambda real: lambda p: real(p) + 1,
        ("height", "fixture"),
    ),
    "automaton": (
        "quick", paths, "automaton_accepts", _accept_d,
        ("automaton", "predicates"),
    ),
    "enumeration": (
        "quick", paths, "enumerate_paths",
        lambda real: lambda n, *a: iter(()) if n == 0 else real(n, *a),
        ("enumerate_paths(0)", "fixture"),
    ),
    "sequence_fixture": (
        "quick", counting, "motzkin_numbers", _skew_always,
        ("Motzkin", "fixture"),
    ),
    "five_way_agreement": (
        "quick", bounded, "bounded_column_dp",
        lambda real: _skew_last(real, lambda l, n: l == 2),
        ("automaton", "brute force"),
    ),
    "end_level_counts": (
        "quick", counting, "end_level_stream", _skew_stream(1),
        ("end-level stream", "brute force"),
    ),
    "determinant_fixtures": (
        "quick", bounded, "strip_family",
        _skew_strip(0, lambda d, e: (d, (*e[:-1], e[-1] + 1))),
        ("E_0", "fixture"),
    ),
    "determinant_fixtures/chebyshev": (
        "quick", bounded, "strip_family",
        _skew_strip(3, lambda d, e: (d + (1,), e)),
        ("strip family", "Chebyshev form"),
    ),
    "height_stats": (
        "quick", bounded, "height_distribution", _skew_height,
        ("expected heights", "fixture"),
    ),
    "pretty_cf": (
        "quick", counting, "pretty_cf_agreement",
        lambda real: lambda d, order: 0 if d == 3 else real(d, order),
        ("agreement orders", "valuation sum"),
    ),
    "pretty_cf/period": (
        "quick", counting, "PRETTY_CF_PERIOD",
        lambda period: (*period[:2], (0, 0, 0, 2)),
        ("period fixed point", "functional equation"),
    ),
    "kernel_identities": (
        "quick", counting, "kernel_residual", _skew_kernel,
        ("kernel residual", "zero"),
    ),
    "kernel_identities/end_level_stream": (
        "quick", counting, "end_level_stream", _skew_stream(4),
        ("end-level residual", "zero"),
    ),
    "recurrence_exactness": (
        "quick", counting, "PEAKLESS_INITIAL",
        lambda seeds: (*seeds[:3], seeds[3] + 1),
        ("recurrence remainder", "exact division"),
    ),
    "table_invariants": (
        "full", bounded, "bounded_count_table", _skew_table,
        ("A(n, l)", "m(n)"),
    ),
}


# rows whose terms are not numbered by a length n: the first index shown
FIRST_INDEX = {
    "determinant_fixtures/chebyshev": "l=3",
    "pretty_cf": "depth=3",
    "pretty_cf/period": "k=0",
    "table_invariants": "l=30",
}


@pytest.mark.parametrize("row", sorted(FAULTS))
def test_every_failure_names_two_routes(monkeypatch, row):
    level, module, attribute, fault, routes = FAULTS[row]
    check = row.partition("/")[0]
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    by_name = {r["check"]: r for r in verify.run_checks(level)}
    detail = by_name[check]["detail"]
    assert not by_name[check]["ok"]
    assert detail.startswith("EngineDisagreement: engine disagreement"), detail
    for route in routes:
        assert f"{route} " in detail, detail
    if row in FIRST_INDEX:
        assert f" first {FIRST_INDEX[row]}: " in detail, detail
