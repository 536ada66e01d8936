"""Closed-loop CLI benchmark for peakless.

    python3 perfbench/run.py --workload sequence|height|agreement \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout.  One client serves the workload's
requests one at a time, each in a fresh interpreter (`python -m peakless
...` with PYTHONPATH=src), so every request pays start-up and runs with
cold caches, as a command-line user does.  Every response is checked
against the digest pinned in digests.json before its time counts.

--trace 0 measures set-up and then the end-to-end metrics, untraced.
--trace 1 serves whole grid passes, each request once through traced.py
(spans around every library layer) and once untraced, and reports the
per-layer metrics plus the tracing overhead.  The last stdout line is the
JSON result; the line before it records the environment and run shape.
See README.md for the workloads and what each metric should move.
"""
import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / f".work-{os.getpid()}"  # per process: concurrent runs stay apart
sys.path.insert(0, str(HERE))

import traced  # noqa: E402
from workloads import OVER_LIMIT, SMOKE, WORKLOADS  # noqa: E402

SETUP_SPAWNS = 5
REQUEST_TIMEOUT_S = 60.0

# Machine-speed control.  On a shared 2-CPU machine the cost of a fresh
# interpreter drifts by up to 1.8x within a minute, and every request,
# short or compute-bound, drifts with it; a warm in-process loop does not.
# So the run interleaves a program-independent control, a fresh
# interpreter importing numpy, after every CONTROL_EVERY requests (and
# between set-up spawns), and divides each request's times by its local
# slowdown: the median of the CONTROL_WINDOW controls on either side of
# it over CONTROL_REF_S, the control's median on that machine in a quiet
# phase.  Scaled times read as seconds on that machine at that speed.
# README.md gives the measurements behind this; unscaled values go to the
# info line.
CONTROL_CODE = "import numpy"
CONTROL_REF_S = 0.135
CONTROL_EVERY = 2
CONTROL_WINDOW = 2

END_TO_END_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_request": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in traced.SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for layer in traced.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update(
        {
            "series.mul.coeff_products": "count",
            "series.max_coeff_bits": "bits",
            "counting.peakless_series.mul_per_call": "count",
            "counting.height_distribution.dp_calls": "count",
            "oracle.sequences_scanned": "count",
            "oracle.table_reuse": "calls/scan",
            "paths.paths_emitted": "count",
            "cli.output_bytes": "bytes",
            "process.import_s": "s",
            "trace.overhead_s": "s",
            "trace.overhead_ratio": "1",
            "failed_ratio": "1",
        }
    )
    return units


class Request:
    """Outcome of one request process."""

    __slots__ = ("args", "wall", "cpu", "rss_mb", "out_bytes", "status", "spans", "slow")

    def __init__(self, args):
        self.args = args
        self.spans = None
        self.slow = 1.0


class Client:
    def __init__(self, digests):
        self.digests = digests
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("PEAKLESS_")
        }
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.out_path = WORK / "stdout"
        self.err_path = WORK / "stderr"
        self.spans_path = WORK / "spans.json"

    def spawn(self, cmd):
        """Run cmd to exit; returns (exit code, wall s, rusage)."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                cwd=WORK, env=self.env,
            )
            lock = threading.Lock()
            reaped = False

            def kill():
                with lock:
                    if not reaped:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(REQUEST_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                with lock:
                    reaped = True
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def serve(self, args, trace=False):
        cmd = [sys.executable]
        if trace:
            cmd += [str(HERE / "traced.py"), str(self.spans_path), "--"]
        else:
            cmd += ["-m", "peakless"]
        req = Request(args)
        self.spans_path.unlink(missing_ok=True)
        code, req.wall, usage = self.spawn(cmd + args.split())
        req.cpu = usage.ru_utime + usage.ru_stime
        req.rss_mb = usage.ru_maxrss / 1024.0
        req.out_bytes = self.out_path.stat().st_size
        req.status = self.judge(args, code)
        if trace:
            try:
                with open(self.spans_path, encoding="utf-8") as handle:
                    req.spans = json.load(handle)
            except FileNotFoundError:  # died before main returned
                req.spans = {"import_s": 0.0, "spans": []}
        return req

    def judge(self, args, code):
        """'ok', 'defect' (the documented over-limit failure) or 'failed'."""
        pin = self.digests[args]
        out = self.out_path.read_bytes()
        digest = hashlib.sha256(out).hexdigest()
        if code == pin["exit"] and digest == pin["sha256"]:
            return "ok"
        defect = pin.get("known_defect")
        if defect and code == defect["exit"] and not out:
            if defect["stderr"] in self.err_path.read_text(errors="replace"):
                return "defect"
        sys.stderr.write(
            f"wrong response to {args!r}: exit {code}, sha256 {digest}\n"
            + self.err_path.read_text(errors="replace")[-2000:]
        )
        return "failed"

    def python_c(self, code):
        """Wall time of a fresh interpreter running `python -c code`."""
        status, wall, _ = self.spawn([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError(f"{code!r} failed: " + self.err_path.read_text()[-2000:])
        return wall

    def setup(self):
        """Set-up times (fresh interpreter importing peakless) and control
        times, SETUP_SPAWNS each, alternating, after one unmeasured warm-up
        of both."""
        setup, control = [], []
        for i in range(SETUP_SPAWNS + 1):
            s, c = self.python_c("import peakless"), self.python_c(CONTROL_CODE)
            if i:
                setup.append(s)
                control.append(c)
        return setup, control


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default) of a sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_cycles(client, workload, seed, seconds, trace, control):
    """Serve whole seed-shuffled cycles until the next one would overrun.

    Untraced runs serve at least workload.min_cycles cycles and append a
    control time to `control` after every CONTROL_EVERY requests; traced
    runs serve at least one pass.  Returns (requests or traced/untraced
    pairs, cycles, elapsed seconds).
    """
    min_cycles = 1 if trace else workload.min_cycles
    done = []
    start = time.perf_counter()
    for count, cycle in enumerate(workload.cycles(seed), 1):
        for i, args in enumerate(cycle):
            if trace:
                # traced and untraced back to back, alternating which goes first
                if i % 2:
                    plain = client.serve(args)
                    done.append((client.serve(args, trace=True), plain))
                else:
                    done.append((client.serve(args, trace=True), client.serve(args)))
            else:
                done.append(client.serve(args))
                if len(done) % CONTROL_EVERY == 0:
                    control.append(client.python_c(CONTROL_CODE))
        elapsed = time.perf_counter() - start
        if count >= min_cycles and elapsed * (count + 1) / count > seconds:
            return done, count, elapsed


def local_slowdown(requests, control, fallback):
    """Set each request's .slow from the controls around it (see above)."""
    for i, req in enumerate(requests):
        j = i // CONTROL_EVERY
        window = control[max(0, j - CONTROL_WINDOW) : j + CONTROL_WINDOW] or fallback
        req.slow = statistics.median(window) / CONTROL_REF_S


def end_to_end_metrics(requests, overhead, setup, tail_p, scaled):
    """End-to-end values over the correct timed requests of a run.

    `overhead` is the client's own time between spawns.  With `scaled`
    every request time is divided by the request's .slow.  The over-limit
    request is left out of every metric, its wall time too, whatever its
    outcome.  Returns None when no timed request succeeded.
    """
    timed = [r for r in requests if r.args != OVER_LIMIT]
    ok = [r for r in timed if r.status == "ok"]
    if not ok:
        return None

    def slow(r):
        return r.slow if scaled else 1.0

    busy = overhead + sum(r.wall / slow(r) for r in timed)
    latencies = [r.wall / slow(r) for r in ok]
    return {
        "throughput_rps": len(ok) / busy,
        "latency_p50_s": percentile(latencies, 50),
        "latency_tail_s": percentile(latencies, tail_p),
        "cpu_s_per_request": sum(r.cpu / slow(r) for r in ok) / len(ok),
        "setup_s": setup,
        "peak_rss_mb": max(r.rss_mb for r in ok),
    }


def layer_metrics(pairs, passes):
    """Per-layer metrics per grid pass from traced/untraced request pairs."""
    units = per_layer_units()
    total = dict.fromkeys(units, 0)
    bits = 0
    ps_calls = ps_muls = scans = 0
    traced_wall = plain_wall = 0.0
    failed = 0
    for tr, plain in pairs:
        traced_wall += tr.wall
        plain_wall += plain.wall
        failed += tr.status != "ok"
        total["cli.output_bytes"] += tr.out_bytes
        total["process.import_s"] += tr.spans["import_s"]
        spans = tr.spans["spans"]
        child = [0.0] * len(spans)
        under_ps = [False] * len(spans)
        for i, (name, parent, t0, t1, raised, work, nbits) in enumerate(spans):
            dur = t1 - t0
            layer = name.split(".", 1)[0]
            if f"{name}.s" in total:
                total[f"{name}.s"] += dur
                total[f"{name}.calls"] += 1
            total[f"{layer}.errors"] += raised
            bits = max(bits, nbits)
            if parent >= 0:
                child[parent] += dur
                pname = spans[parent][0]
                under_ps[i] = under_ps[parent] or pname == "counting.peakless_series"
                if name == "counting.bounded_count_dp" and pname == (
                    "counting.height_distribution"
                ):
                    total["counting.height_distribution.dp_calls"] += 1
            if name == "series.mul":
                total["series.mul.coeff_products"] += work
                ps_muls += under_ps[i]
            elif name == "counting.peakless_series":
                ps_calls += 1
            elif name == "oracle.classification_table":
                total["oracle.sequences_scanned"] += work
                scans += work > 0
            elif name == "paths.enumerate_paths":
                total["paths.paths_emitted"] += work
        for i, span in enumerate(spans):
            layer = span[0].split(".", 1)[0]
            total[f"{layer}.self_s"] += span[3] - span[2] - child[i]
    # every pass serves the same requests, so counts divide exactly
    out = {
        k: v // passes if isinstance(v, int) and v % passes == 0 else v / passes
        for k, v in total.items()
    }
    out["series.max_coeff_bits"] = bits
    out["counting.peakless_series.mul_per_call"] = ps_muls / ps_calls if ps_calls else 0
    calls = total["oracle.classification_table.calls"]
    out["oracle.table_reuse"] = calls / scans if scans else 0
    out["trace.overhead_s"] = (traced_wall - plain_wall) / passes
    out["trace.overhead_ratio"] = (traced_wall - plain_wall) / plain_wall
    out["failed_ratio"] = failed / len(pairs)
    return {k: {"value": out[k], "unit": units[k]} for k in units}


def git_sha():
    """HEAD of the checkout from .git files, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grid, self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "peakless" / "cli.py").is_file():
        sys.exit(f"no peakless sources under {ROOT / 'src'}; run from a checkout")
    digests = json.loads((HERE / "digests.json").read_text())
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    unpinned = [r for r in workload.grid if r not in digests]
    if unpinned:
        sys.exit(f"requests without a pinned digest (run pin.py): {unpinned}")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        client = Client(digests)
        info = stamp(args)
        if args.trace:
            done, passes, elapsed = run_cycles(
                client, workload, args.seed, args.seconds, True, []
            )
            requests = [r for pair in done for r in pair]
            metrics = layer_metrics(done, passes)
            info["unexpected_work"] = [k for k in workload.idle if metrics[k]["value"]]
        else:
            setup, setup_control = client.setup()
            control = []
            requests, passes, elapsed = run_cycles(
                client, workload, args.seed, args.seconds, False, control
            )
            local_slowdown(requests, control, setup_control)
            overhead = elapsed - sum(control) - sum(r.wall for r in requests)
            # set-up spawns alternate with controls: scale each by its pair
            setup_scaled = statistics.median(
                s / c * CONTROL_REF_S for s, c in zip(setup, setup_control)
            )
            p = workload.tail_percentile
            raw = end_to_end_metrics(
                requests, overhead, statistics.median(setup), p, scaled=False
            )
            if raw is None:
                sys.exit("no timed request succeeded")
            scaled = end_to_end_metrics(
                requests, overhead, setup_scaled, p, scaled=True
            )
            info.update(
                tail_percentile=p,
                raw_metrics=raw,
                control_samples=len(control) + len(setup_control),
                control_median_s=statistics.median(control or setup_control),
                setup_s_samples=setup,
            )
            metrics = {
                k: {"value": scaled[k], "unit": u} for k, u in END_TO_END_UNITS.items()
            }
        failed = sum(r.status == "failed" for r in requests)
        defect = sum(r.status == "defect" for r in requests)
        info.update(
            cycles=passes,
            elapsed_s=elapsed,
            requests=len(requests),
            ok=sum(r.status == "ok" for r in requests),
            known_defect=defect,
            # failures as a CLI user sees them, the known defect included
            failed_ratio=(failed + defect) / len(requests),
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(requests),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
