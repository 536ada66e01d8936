import cmath
import json
import math

import pytest

from peakless import asymptotics, bounded, counting
from peakless.cli import main
from peakless.errors import ResourceLimitError


def test_singularity_constants():
    assert abs(1.0 - 3.0 * asymptotics.RHO + asymptotics.RHO**2) < 1e-12
    # 1/rho is the other real root, the square of the golden ratio
    assert abs(1.0 - 3.0 / asymptotics.RHO + asymptotics.RHO**-2) < 1e-12
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(1.0 / asymptotics.RHO - golden**2) < 1e-12
    assert abs(asymptotics.SINGULAR_AMPLITUDE**4 - 5.0) < 1e-12
    # the companion factor 1 + z + z^2 only has unit-modulus roots
    for root in ((-1 + cmath.sqrt(-3)) / 2, (-1 - cmath.sqrt(-3)) / 2):
        assert abs(1 + root + root * root) < 1e-12
        assert abs(abs(root) - 1.0) < 1e-12


def test_kernel_root_equals_one_at_the_singularity():
    # with the square root vanishing at rho, s_2(rho) = (1 - rho + rho^2)/(2 rho)
    rho = asymptotics.RHO
    assert abs((1.0 - rho + rho * rho) / (2.0 * rho) - 1.0) < 1e-12


def test_height_constants():
    assert asymptotics.AVG_HEIGHT_CONSTANT == 2.0 * 5.0**-0.25
    assert abs(asymptotics.AVG_HEIGHT_CONSTANT - 1.337480610) < 1e-9
    assert asymptotics.MOTZKIN_HEIGHT_CONSTANT == 3.0**-0.5
    assert abs(asymptotics.MOTZKIN_HEIGHT_CONSTANT - 1.0 / math.sqrt(3.0)) < 1e-15
    assert round(asymptotics.MOTZKIN_HEIGHT_CONSTANT, 10) == 0.5773502692


def test_predicted_count_monotone_and_log_form():
    values = [asymptotics.predicted_count(n) for n in range(2, 61)]
    assert all(a < b for a, b in zip(values, values[1:]))
    n = 50
    direct = (
        5.0**0.25
        * asymptotics.RHO ** (-n - 1)
        / (2.0 * math.sqrt(math.pi) * n**1.5)
    )
    assert math.isclose(asymptotics.predicted_count(n), direct, rel_tol=1e-12)
    assert asymptotics.predicted_count(2000) == math.inf
    assert math.isfinite(asymptotics.log_predicted_count(2000))
    with pytest.raises(ValueError):
        asymptotics.predicted_count(0)


def test_count_ratio_behaviour():
    values = counting.peakless_recurrence(500)
    r250 = asymptotics.count_ratio(250, values[250])
    r500 = asymptotics.count_ratio(500, values[500])
    assert abs(r500 - 1.0) < 5e-3
    assert abs(r500 - 1.0) < abs(r250 - 1.0)
    exact = counting.peakless_recurrence(100)[100]
    assert math.isclose(
        asymptotics.count_ratio(100, exact=exact),
        exact / asymptotics.predicted_count(100),
        rel_tol=1e-9,
    )


def test_avg_height_predictions():
    assert math.isclose(
        asymptotics.predicted_avg_height(400),
        asymptotics.AVG_HEIGHT_CONSTANT * math.sqrt(400.0 * math.pi),
        rel_tol=1e-12,
    )


def test_count_report():
    rows = asymptotics.convergence_report("count", [100, 500])
    assert isinstance(rows, tuple)
    assert [row.n for row in rows] == [100, 500]
    ratios = [row.ratio for row in rows]
    assert all(0.9 < r < 1.1 for r in ratios)
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
    assert isinstance(rows[0].exact, float)


def test_count_report_renders_huge_values(capsys):
    # m(747) and its prediction still fit a double; from n = 748 neither does
    at_747, at_748, at_1200 = asymptotics.convergence_report("count", [747, 748, 1200])
    assert isinstance(at_747.exact, float) and isinstance(at_747.predicted, float)
    for row in (at_748, at_1200):
        assert isinstance(row.exact, str) and "e+" in row.exact
        assert isinstance(row.predicted, str) and "e+" in row.predicted
        assert 0.9 < row.ratio < 1.1
    # one type per row: exact and predicted switch to strings together
    for row in asymptotics.convergence_report("count", range(700, 761)):
        assert type(row.exact) is type(row.predicted), row
    assert main(["asympt", "--kind", "count", "-n", "1200", "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert "'" not in csv and '"' not in csv


def test_avg_height_report_is_verbatim():
    rows = asymptotics.convergence_report("avg_height", [50, 100])
    assert asymptotics.REPORT_TOLERANCES["avg_height"] == 0.15
    ratios = [row.ratio for row in rows]
    assert ratios[0] < ratios[1]  # the ratio climbs with n
    stats = bounded.height_distribution(50)
    want = float(stats.expected_height) / asymptotics.predicted_avg_height(50)
    assert rows[0].ratio == want  # recorded verbatim, no smoothing


def test_empty_report():
    assert asymptotics.convergence_report("count", []) == ()


def test_report_caps():
    with pytest.raises(ResourceLimitError):
        asymptotics.convergence_report("count", [20_000])
    with pytest.raises(ResourceLimitError):
        asymptotics.convergence_report("avg_height", [501])
    with pytest.raises(ResourceLimitError):
        asymptotics.convergence_report("avg_height", [50], cap=30)
    (row,) = asymptotics.convergence_report("count", [220], cap=250)
    assert row.n == 220


def test_report_validation():
    with pytest.raises(ValueError):
        asymptotics.convergence_report("entropy", [10])
    with pytest.raises(ValueError):
        asymptotics.convergence_report("count", [0])
    # a negative budget is a malformed setting, not an exhausted budget
    with pytest.raises(ValueError, match="nonnegative"):
        asymptotics.convergence_report("count", [5], cap=-3)
    with pytest.raises(ValueError, match="nonnegative"):
        asymptotics.convergence_report("avg_height", [5], cap=-1)
    # a length that is no integer is refused, not truncated or parsed
    for length in (2.9, "7"):
        with pytest.raises(TypeError):
            asymptotics.convergence_report("count", [length])


def test_report_serialization_is_stable(capsys):
    out = {}
    for fmt in ("csv", "json"):
        argv = ["asympt", "--kind", "count", "-n", "100", "-n", "250", "--format", fmt]
        assert main(argv) == 0
        out[fmt] = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == out[fmt]
    payload = json.loads(out["json"])
    assert payload["kind"] == "count"
    assert payload["tolerance"] == 0.01
    assert [row["n"] for row in payload["rows"]] == [100, 250]
    assert out["csv"].splitlines()[0] == "n,exact,predicted,ratio"
