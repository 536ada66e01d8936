"""Serve one peakless CLI request with timing spans around each layer.

    python perfbench/traced.py SPANS_JSON -- <peakless arguments>

Imports peakless (timed as the process import), wraps the public
functions named in FUNCTIONS and every check `verify.checks_for_level`
hands out, then calls `peakless.cli.main(argv)`.  Spans stay in memory and
are written to SPANS_JSON when main returns, as a list of

    [name, parent index or -1, start, end, raised, work, max_coeff_bits]

in start order.  `work` is a count computed from the arguments or the
results: coefficient products for Series.__mul__, 3^n for the first
classification_table call of each n in the process (a cold scan), paths
yielded by enumerate_paths.  stdout and the exit code are the CLI's own.
The program under src/ is not modified; only module attributes are
rebound inside this process.
"""
import functools
import json
import sys
import time

LAYERS = ("series", "counting", "oracle", "paths", "asymptotics", "verify", "cli")

# span name -> (module, attribute); Series methods use "Class.method"
FUNCTIONS = {
    "series.mul": ("series", "Series.__mul__"),
    "series.inverse": ("series", "Series.inverse"),
    "series.poly_divide": ("series", "poly_divide_series"),
    "series.poly_mul": ("series", "poly_mul"),
    "counting.peakless_series": ("counting", "peakless_series"),
    "counting.peakless_recurrence": ("counting", "peakless_recurrence"),
    "counting.end_level_series": ("counting", "end_level_series"),
    "counting.bounded_series_cf": ("counting", "bounded_series_cf"),
    "counting.bounded_series_det": ("counting", "bounded_series_det"),
    "counting.bounded_count_dp": ("counting", "bounded_count_dp"),
    "counting.bounded_count_table": ("counting", "bounded_count_table"),
    "counting.height_distribution": ("counting", "height_distribution"),
    "oracle.classification_table": ("oracle", "classification_table"),
    "oracle.brute_force_count": ("oracle", "brute_force_count"),
    "oracle.height_counts": ("oracle", "height_counts"),
    "paths.enumerate_paths": ("paths", "enumerate_paths"),
    "paths.automaton_accepts": ("paths", "automaton_accepts"),
    "asymptotics.convergence_report": ("asymptotics", "convergence_report"),
}

# names `verify.checks_for_level` gives its checks (quick and full)
VERIFY_CHECKS = (
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
)

SPAN_NAMES = tuple(FUNCTIONS) + tuple(f"verify.check.{c}" for c in VERIFY_CHECKS) + (
    "cli.main",
)

perf = time.perf_counter


def _max_bits(coeffs):
    return max((c.bit_length() for c in coeffs), default=0)


def _mul_work(args, result):
    n = min(args[0].order, args[1].order)
    return (n + 1) * (n + 2) // 2, _max_bits(result.coeffs)


def _series_bits(args, result):
    return 0, _max_bits(result.coeffs)


def _poly_bits(args, result):
    return 0, _max_bits(result)


class Tracer:
    """In-memory span recorder; one per request process."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.scanned = set()

    def _open(self, name):
        rec = [name, self.stack[-1], perf(), 0.0, 0, 0, 0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        rec[3] = perf()
        self.stack.pop()

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = 1
                raise
            finally:
                self._close(rec)
            if work is not None:
                rec[5], rec[6] = work(args, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        # the span lasts until the generator is exhausted; callers drain it
        # with list(), so nothing else runs while it is suspended
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                for item in fn(*args, **kwargs):
                    rec[5] += 1
                    yield item
            except GeneratorExit:
                raise
            except BaseException:
                rec[4] = 1
                raise
            finally:
                self._close(rec)

        return wrapper

    def _scan_work(self, args, result):
        n = args[0]
        if n in self.scanned:
            return 0, 0
        self.scanned.add(n)
        return 3**n, 0

    def install(self, modules):
        """Rebind every traced function in every peakless module namespace."""
        special = {
            "series.mul": _mul_work,
            "series.inverse": _series_bits,
            "series.poly_divide": _series_bits,
            "series.poly_mul": _poly_bits,
            "oracle.classification_table": self._scan_work,
        }
        swaps = {}
        for name, (module, attr) in FUNCTIONS.items():
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:  # renamed or removed: the metric reads 0
                continue
            if name == "paths.enumerate_paths":
                wrapped = self.wrap_generator(name, fn)
            else:
                wrapped = self.wrap(name, fn, special.get(name))
            if path:
                setattr(owner, leaf, wrapped)
            else:
                swaps[id(fn)] = (fn, wrapped)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

        verify = modules["verify"]
        checks_for_level = verify.checks_for_level

        def traced_checks(level):
            return [
                (name, self.wrap(f"verify.check.{name}", fn))
                for name, fn in checks_for_level(level)
            ]

        verify.checks_for_level = traced_checks


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: traced.py SPANS_JSON -- <peakless arguments>")
    spans_path, argv = sys.argv[1], sys.argv[3:]
    start = perf()
    import peakless
    from peakless import asymptotics, cli, counting, oracle, paths, series, verify

    import_s = perf() - start
    tracer = Tracer()
    modules = {
        "peakless": peakless,
        "series": series,
        "counting": counting,
        "oracle": oracle,
        "paths": paths,
        "asymptotics": asymptotics,
        "verify": verify,
        "cli": cli,
    }
    tracer.install(modules)
    code = 1
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
