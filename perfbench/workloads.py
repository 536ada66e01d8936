"""Request grids of the CLI benchmark, one per workload.

A request is the argument string of one `python -m peakless` invocation.
A run serves whole cycles: each cycle is the workload's grid once, in an
order drawn from the seed, so every cycle has the same composition and a
fixed percentile reads the same request class whatever the cycle count.
Every request in every grid has a pinned outcome in `digests.json`
(regenerate it with `pin.py`).  Costs in the comments are wall seconds of
one cold request on 2 CPUs without numba.
"""
import random

# `count` above n ~ 10 290 prints an integer of more than 4300 digits and
# trips Python's int->str limit: the CLI exits 2 ("Exceeds the limit (4300
# digits) for integer string conversion") for a valid, uncapped request.
# The request stays in the mix; it is counted in failed_ratio and left out
# of every timing and resource metric (see README.md).
OVER_LIMIT = "count -n 10305"

ORACLE_CALLS = (
    "oracle.classification_table.calls",
    "oracle.brute_force_count.calls",
    "oracle.height_counts.calls",
    "oracle.sequences_scanned",
)
BOUNDED_CALLS = (
    "counting.bounded_series_cf.calls",
    "counting.bounded_series_det.calls",
    "counting.bounded_count_dp.calls",
    "counting.bounded_count_table.calls",
    "counting.height_distribution.calls",
)


class Workload:
    """A request grid plus the run shape that makes its metrics repeat."""

    def __init__(self, name, why, grid, min_cycles, idle=()):
        self.name = name
        self.why = why
        self.grid = tuple(grid)
        # per-layer call counts predicted to read exactly 0 on this workload
        self.idle = tuple(idle)
        # runs serve at least this many cycles, so the tail percentile
        # below always has ten or more requests beyond it
        self.min_cycles = min_cycles

    @property
    def timed(self):
        """Grid requests that feed the timing and resource metrics."""
        return tuple(r for r in self.grid if r != OVER_LIMIT)

    @property
    def tail_percentile(self):
        """Highest whole percentile with >= 10 timed requests beyond it."""
        n = self.min_cycles * len(self.timed)
        return max(50, (100 * (n - 10)) // n)

    def cycles(self, seed):
        """Endless sequence of seed-shuffled passes over the grid."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield rng.sample(self.grid, len(self.grid))


SEQUENCE = Workload(
    "sequence",
    "count/asympt/export of unbounded counts, n 50..10000: recurrence, O(n^3) "
    "fixed-point cross-check, big-int rendering; oracle and bounded engines idle",
    [
        # seven short requests, mostly interpreter start-up (0.2-0.3 s)
        "count -n 50",
        "count -n 100 --format json",
        "asympt --kind count -n 250 -n 2000",
        "asympt --kind count -n 1000 -n 5000 --format csv",
        "asympt --kind count -n 100 -n 10000 --format json",
        "export report --kind count -n 2000 --format json",
        "export report --kind count -n 500 -n 5000",
        # nine requests paced by the n = 200 fixed-point cross-check
        # (0.6-0.7 s); the median and the tail percentile both fall here
        "count -n 200 --format csv",
        "count -n 250",
        "count -n 300 --format json",
        "count -n 400",
        "count -n 500",
        "count -n 650 --format csv",
        "count -n 800 --format csv",
        "count -n 1000 --format json",
        "count -n 1200 --format json",
        # three long ones where int->str rendering grows (0.8-2.2 s)
        "count -n 2000",
        "count -n 5000 --format json",  # 5.2 MB
        "count -n 10000 --format csv",  # 21 MB
        OVER_LIMIT,  # 2.2 s, then exit 2: 1 request in 20
    ],
    min_cycles=2,
    idle=ORACLE_CALLS + BOUNDED_CALLS,
)

HEIGHT = Workload(
    "height",
    "bounded rows/tables/exports, dist, avg_height reports: ladder inverses, "
    "determinant division, n/2 height DP passes; fixed point, recurrence, oracle idle",
    [
        "bounded -n 12 -l 3",  # 0.17 s
        "bounded -n 200 -l 10",  # 0.29 s
        "bounded -n 300 -l 25 --format json",
        "bounded -n 300 -l 30 --format csv",  # 0.45 s: ladder of 30 inverses
        "bounded -n 14 -l 4 --table --format json",
        "bounded -n 60 -l 10 --table --format csv",  # 0.27 s
        "bounded -n 100 -l 20 --table",  # 0.46 s
        "bounded -n 100 -l 25 --table --format json",
        "export bounded -n 100 -l 20 --method cf",  # 0.31 s
        "export bounded -n 200 -l 40 --method det --format json",  # 0.28 s, 0.8 MB
        "export bounded -n 60 -l 10 --method dp --format json",  # 0.23 s
        "export bounded -n 80 -l 15 --method dp",
        "dist -n 12",
        "dist -n 14 --format json",
        "dist -n 100 --format csv",  # 0.24 s
        "dist -n 160 --format json",
        "dist -n 250",  # 0.66 s
        "asympt --kind avg_height -n 50 -n 100 -n 200",  # 0.39 s
        "asympt --kind avg_height -n 250 --format csv",
        "asympt --kind avg_height -n 300 --format json",  # 0.85 s
    ],
    min_cycles=2,
    idle=ORACLE_CALLS
    + ("counting.peakless_series.calls", "counting.peakless_recurrence.calls"),
)

AGREEMENT = Workload(
    "agreement",
    "verify quick/full and enumerate n <= 14: the 3^n oracle scan and the "
    "exhaustive path enumerator; bounded engines nearly idle",
    [
        "verify --level full --format json",  # 4.5 s, 242 MB: scans to n = 14
        "verify --level quick --format json",  # 0.22 s
        "verify --level quick --format json",
        "enumerate -n 8 --format json",
        "enumerate -n 9",
        "enumerate -n 10 --format json",  # 0.18 s
        "enumerate -n 11 --peakless --format json",
        "enumerate -n 12",  # 0.2 s, 0.2 MB
        "enumerate -n 12 --peakless -l 2 --end-level 2 --format json",
        "enumerate -n 13 --end-level 2 --peakless",
        "enumerate -n 14 --peakless",  # 0.2 s
        "enumerate -n 14 --peakless -l 3",
        "enumerate -n 14 --peakless --end-level 1",
        # four of 0.3-0.35 s (0.9-1.5 MB), where the tail percentile falls
        "enumerate -n 13 -l 4 --end-level 1",
        "enumerate -n 14 -l 2",
        "enumerate -n 14 -l 2 --end-level 1",
        "enumerate -n 14 -l 3",
    ],
    min_cycles=3,
)

# seconds-long grids for the benchmark's own self-test
SMOKE = {
    "sequence": Workload(
        "sequence", SEQUENCE.why, ["count -n 30", "asympt --kind count -n 50"], 1
    ),
    "height": Workload(
        "height", HEIGHT.why, ["bounded -n 12 -l 3", "dist -n 12"], 1
    ),
    "agreement": Workload(
        "agreement",
        AGREEMENT.why,
        ["enumerate -n 8 --format json", "verify --level quick --format json"],
        1,
    ),
}

WORKLOADS = {w.name: w for w in (SEQUENCE, HEIGHT, AGREEMENT)}
