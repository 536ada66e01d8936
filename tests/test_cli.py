import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import peakless
from peakless import counting, oracle
from peakless.cli import main
from peakless.paths import PathConstraints
from peakless.series import Series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "6")
    assert code == 0
    assert out == "1 1 1 2 4 8 17\n"


def test_count_zero(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "0")
    assert code == 0
    assert out == "1\n"


def test_count_sixteen_matches_brute_force(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "16")
    assert code == 0
    want = oracle.brute_force_count(16, PathConstraints(peakless=True))
    assert out.split()[-1] == str(want)


def test_count_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,count\n0,1\n1,1\n2,1\n3,2\n"
    code, out, _ = run_cli(capsys, "count", "-n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n_max": 3, "counts": [1, 1, 1, 2]}


def test_count_past_int_str_digit_limit(capsys):
    # m(1600) has 664 digits; the CLI prints it even under a 640-digit limit
    # and leaves the limit as it found it
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run_cli(capsys, "count", "-n", "1600")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0
    n = 1600  # closed form m(n) = sum_k C(n-k, k) C(n-k-1, k) / (k+1)
    want = sum(comb(n - k, k) * comb(n - k - 1, k) // (k + 1) for k in range(n // 2 + 1))
    assert int(out.split()[-1]) == want


def test_count_cross_checks_engines(capsys, monkeypatch):
    def skewed(n_max):
        values = counting.peakless_recurrence(n_max)
        values[-1] += 1
        return values

    monkeypatch.setattr(counting, "peakless_series", skewed)
    code, _, err = run_cli(capsys, "count", "-n", "6")
    assert code == 1
    assert "disagreement" in err


def test_bounded_rows(capsys):
    code, out, _ = run_cli(capsys, "bounded", "-n", "6", "-l", "0")
    assert code == 0
    assert out == "1 1 1 1 1 1 1\n"
    code, out, _ = run_cli(capsys, "bounded", "-n", "6", "-l", "3")
    assert out.split()[-1] == "17"
    code, out, _ = run_cli(capsys, "bounded", "-n", "4", "-l", "1")
    assert out.split()[-1] == "4"


def test_bounded_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "bounded", "-n", "3", "-l", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,ell,count"
    assert out.splitlines()[1] == "0,1,1"


def test_bounded_table(capsys):
    code, out, _ = run_cli(capsys, "bounded", "-n", "6", "-l", "2", "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l=0: 1 1 1 1 1 1 1"
    assert lines[2].endswith("17")


def test_bounded_cross_checks_engines(capsys, monkeypatch):
    def broken(bound, order):
        good = counting.bounded_series_cf(bound, order)
        warped = list(good.coeffs)
        warped[-1] += 1
        return Series(warped, order)

    monkeypatch.setattr(counting, "bounded_series_det", broken)
    code, _, err = run_cli(capsys, "bounded", "-n", "6", "-l", "2")
    assert code == 1
    assert "determinant" in err


def test_dist_text(capsys):
    code, out, _ = run_cli(capsys, "dist", "-n", "4")
    assert code == 0
    assert out == "0:1 1:3  E[H]=3/4\n"


def test_dist_json(capsys):
    code, out, _ = run_cli(capsys, "dist", "-n", "4", "--format", "json")
    payload = json.loads(out)
    assert payload == {
        "n": 4,
        "distribution": [1, 3],
        "expected_height": "3/4",
        "expected_height_float": 0.75,
    }


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "4", "--peakless")
    assert code == 0
    assert out == "FFFF\nFUFD\nUFFD\nUFDF\n"
    code, out, _ = run_cli(capsys, "enumerate", "-n", "1", "--end-level", "1")
    assert out == "U\n"
    code, out, _ = run_cli(capsys, "enumerate", "-n", "4", "--peakless", "-l", "0")
    assert out == "FFFF\n"


def test_enumerate_rejects_csv(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "-n", "4", "--format", "csv"])
    assert info.value.code == 2


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "-n", "20", "--peakless")
    assert code == 3
    assert "cap" in err
    code, _, err = run_cli(capsys, "enumerate", "-n", "5", "--oracle-cap", "4")
    assert code == 3


def test_enumerate_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("PEAKLESS_ORACLE_CAP", "3")
    code, _, err = run_cli(capsys, "enumerate", "-n", "4")
    assert code == 3


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "PASS five_way_agreement" in out
    assert "checks passed (quick)" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == "quick"
    assert payload["failures"] == []
    assert all(r["ok"] for r in payload["results"])


def test_verify_failure_lists_machine_readable(capsys, monkeypatch):
    def broken(bound, order):
        return Series((9,), order)

    monkeypatch.setattr(counting, "bounded_series_det", broken)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL" in out
    blob = out[out.index("{") :]
    failures = json.loads(blob)["failures"]
    assert any("bounded_series_det" in f["detail"] for f in failures)


def test_verify_oracle_cap_exits_3(capsys, monkeypatch):
    # the five-way check needs the oracle at n = 10; a cap of 5 stops it
    monkeypatch.setenv("PEAKLESS_ORACLE_CAP", "5")
    code, out, err = run_cli(capsys, "verify")
    assert code == 3
    assert "cap" in err
    assert out == ""


def test_verify_malformed_oracle_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PEAKLESS_ORACLE_CAP", "abc")
    code, out, err = run_cli(capsys, "verify")
    assert code == 2
    assert "error" in err
    assert out == ""


def test_asympt_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--kind", "count", "-n", "100")
    assert code == 0
    assert out.startswith("kind=count")
    assert "n=100" in out
    code, out, _ = run_cli(
        capsys, "asympt", "--kind", "avg_height", "-n", "50", "--format", "csv"
    )
    assert out.splitlines()[0] == "n,exact,predicted,ratio"
    assert out.splitlines()[1].startswith("50,")


def test_asympt_resource_cap(capsys):
    code, _, err = run_cli(capsys, "asympt", "--kind", "avg_height", "-n", "501")
    assert code == 3
    assert "budget" in err


def test_byte_stable_machine_output(capsys):
    first = run_cli(capsys, "asympt", "--kind", "count", "-n", "100", "--format", "json")
    second = run_cli(capsys, "asympt", "--kind", "count", "-n", "100", "--format", "json")
    assert first == second
    a = run_cli(capsys, "bounded", "-n", "8", "-l", "2", "--table", "--format", "csv")
    b = run_cli(capsys, "bounded", "-n", "8", "-l", "2", "--table", "--format", "csv")
    assert a == b


def test_export_bounded(capsys):
    code, out, _ = run_cli(capsys, "export", "bounded", "-n", "4", "-l", "2")
    assert code == 0
    assert out == counting.bounded_table_csv(counting.bounded_count_table(4, 2))
    code, out, _ = run_cli(
        capsys, "export", "bounded", "-n", "4", "-l", "2", "--method", "dp",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["method"] == "dp"
    assert payload["rows"][0] == {"n": 0, "ell": 0, "count": 1}


def test_export_report(capsys):
    code, out, _ = run_cli(
        capsys, "export", "report", "--kind", "count", "-n", "100", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "count"
    assert payload["rows"][0]["n"] == 100


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "export", "bounded", "-n", "3", "-l", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "n,ell,count"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count"])  # missing -n
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["export", "bounded", "-n", "4"])  # missing -l
    assert info.value.code == 2


def test_module_entry_point():
    # the child imports the same checkout as this test run, installed or not
    src = str(Path(peakless.__file__).parent.parent)
    search = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(search))
    proc = subprocess.run(
        [sys.executable, "-m", "peakless", "count", "-n", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 1 1 2 4\n"


# sha256 of the exact stdout of every subcommand x format pair at small sizes;
# csv and json bytes are a stable interface, and text output is pinned too
GOLDEN_STDOUT = [
    ("count -n 12", "863faff6d2a28517a29cf44dd92d85a8496ac287ee2871df0963c3943d87c232"),
    ("count -n 12 --format csv", "d08bae7baa4eaf76bc6160db67543bfba9fb2042fc06373e822f427d0c1ddaeb"),
    ("count -n 12 --format json", "268c8a523b0c79d7fed2499cd9981030659c5f79a5cee2a120deb37ab8f54e22"),
    ("bounded -n 10 -l 2", "c601d7273fc00465e2bd6264dda0fa016975e921e4ceb98d8c3325f927117d63"),
    ("bounded -n 10 -l 2 --format csv", "9cf226b119d40834f62ff28a75f1f8fbd900b6370a318d95eba5816b1c4df1a8"),
    ("bounded -n 10 -l 2 --format json", "71df1e438e7bddb0bd64e407d4931477d2889ab81398740b7e6447c50f6253bb"),
    ("bounded -n 8 -l 3 --table", "46bd20cd002ce6e7720862180845e3752010fb66ddd15d7c3f2b1d047ef96baa"),
    ("bounded -n 8 -l 3 --table --format csv", "b6c9dfb1b8bab86d5c95b2484877a040570f94f05e9aa4679a24954484c89f52"),
    ("bounded -n 8 -l 3 --table --format json", "aa5ae98b2bf5493206a3ff306d588e375eecd3820355aaf437d9494c8a62e72a"),
    ("dist -n 10", "b44dfa179932712b365e3789f84dd3f86c42d2fb42621493b545aeb98143105b"),
    ("dist -n 10 --format csv", "c9105d6b98f0094d723b835eba7de4ffc10eef249f72722ebdba04b1a80178e1"),
    ("dist -n 10 --format json", "6ca0a1ea0e85f68a063e76c1bad001de5209c46124b4a7038703e408cb16418f"),
    ("enumerate -n 6 --peakless", "df0e022223931c7aa4e09cd723d831cc6ce3cd3c6affef7f43d1a22ff6f99dab"),
    ("enumerate -n 6 --peakless --format json", "67ab013eca7a704394a822698d7daf13e4e06187b1d7691106b36cec3e4c5761"),
    ("enumerate -n 1 --end-level 2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asympt --kind count -n 50 -n 2000", "85c453b1d6451e684415bb6f6f349252466bca60f79ded5bbd6a509a1f6e7f8b"),
    ("asympt --kind count -n 50 -n 2000 --format csv", "4778e99facc6926c362320d5db061ece202b93eb82c84d92120f9f02342feb5b"),
    ("asympt --kind count -n 50 -n 2000 --format json", "bf42e175bcaee22b3482f44a4bd78277574ce7f4042d3b97e6ae2a973d72a701"),
    ("asympt --kind avg_height -n 20 -n 40", "5a8c24ca60df70074dbea0e75fcdda710cc386d38fed26136c220a5b449e1c24"),
    ("asympt --kind avg_height -n 20 -n 40 --format csv", "a89ca097790a74612e078653f54d4edef8fbdd8a12822398b008ca20690fcab5"),
    ("asympt --kind avg_height -n 20 -n 40 --format json", "b0dc950da67619f478727c7790a0ff52fe3dd36146ca42da5dfb1058f5a85256"),
    ("export bounded -n 6 -l 2", "dbb22c0ef6769003151da95999e31d21ebb30df0371037898feb988a3d9f2530"),
    ("export bounded -n 6 -l 2 --method det --format json", "eba55c2a00045afc523e3e76eb0be6298748330d91119e5637e7c02995e658ae"),
    ("export report --kind count -n 30", "6d2f1a63b3b522fb054cca4aa64ee92740fbcbffba5512684d590463045bea2c"),
    ("export report --kind avg_height -n 30 --format json", "3fadbe782e2d2dd267b1cfc9a859e5e893dd1550093a3706025d0dc2b126d141"),
    ("verify --format json", "7d8b51932668e8ac083fe0d59a05d248493804017056f8d7273a8da307b97ec1"),
]


@pytest.mark.parametrize("argv,sha256", GOLDEN_STDOUT, ids=[a for a, _ in GOLDEN_STDOUT])
def test_golden_stdout_bytes(capsys, argv, sha256):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256, out
