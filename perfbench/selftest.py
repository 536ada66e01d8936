"""Self-test of the CLI benchmark.

    python3 perfbench/selftest.py          # smoke grids, about half a minute
    python3 perfbench/selftest.py --full   # plus one traced pass of each full grid

Run from the repository root.  Checks that:

* BENCHMARK.json lists exactly the metrics run.py prints, with their units;
* every workload prints a result line of the agreed shape, untraced and
  traced, with every response correct;
* counts (per-layer metrics that are not seconds or ratios of times) repeat
  exactly across seeds, since every pass serves the same requests;
* with --full, the per-layer counts predicted to read 0 on each full grid
  do (workloads.py, `idle`), and the over-limit `count` request shows up in
  failed_ratio and nowhere else;
* without the program's sources the benchmark exits nonzero, printing no
  result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, per_layer_units  # noqa: E402
from workloads import OVER_LIMIT, WORKLOADS  # noqa: E402

TIMES = ("_s", ".s", "overhead_ratio")


def bench(workload, seed, trace, smoke=True, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    res, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] and res["failed"] == 0, proc.stderr[-3000:]
    assert res["attempted"] >= 1
    return res, info


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items() if not k.endswith(TIMES)}


def check_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == END_TO_END_UNITS, "end_to_end metrics differ from run.py"
    assert layer == per_layer_units(), "per_layer metrics differ from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    return e2e, layer


def check_workload(name, e2e, layer, smoke):
    res, _ = result(bench(name, 1, 0, smoke))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == e2e
    assert all(v["value"] > 0 for v in res["metrics"].values())
    runs = [result(bench(name, seed, 1, smoke)) for seed in (1, 2)]
    for res, info in runs:
        assert {k: v["unit"] for k, v in res["metrics"].items()} == layer
        assert info["unexpected_work"] == [], info["unexpected_work"]
    first, second = (counts(res["metrics"]) for res, _ in runs)
    assert first == second, {k: (v, second[k]) for k, v in first.items() if v != second[k]}
    if not smoke:
        metrics = runs[0][0]["metrics"]
        grid = WORKLOADS[name].grid
        share = grid.count(OVER_LIMIT) / len(grid)
        assert metrics["failed_ratio"]["value"] == share, metrics["failed_ratio"]
    print(f"ok  {name} ({'smoke' if smoke else 'full'})", flush=True)


def check_without_sources():
    bare = HERE / ".selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work-*", ".selftest", "__pycache__"))
        proc = bench("sequence", 1, 0, smoke=False, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the sources")


def main():
    full = "--full" in sys.argv[1:]
    e2e, layer = check_declaration()
    print("ok  BENCHMARK.json matches run.py")
    for name in WORKLOADS:
        check_workload(name, e2e, layer, smoke=True)
        if full:
            check_workload(name, e2e, layer, smoke=False)
    check_without_sources()


if __name__ == "__main__":
    main()
