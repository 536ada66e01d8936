"""Command-line interface.

Subcommands: count, bounded, dist, enumerate, verify, asympt, export.
Each handler computes its data, holds the numbers it prints to a second
route with one `check_*` call of its engine module, `counting` for m(n)
and `bounded` for A(n, l) (`enumerate` has none yet), and returns a
`render.Output`; `main` then writes it in the requested format, chunk by
chunk, so nothing reaches stdout or --out unless every check has passed.
`bounded --table` and `export bounded` share one table builder,
`_table_output`, which builds, checks and renders the A(n, l) table.
Text output is for humans; --format csv and --format json are stable
machine formats whose bytes depend only on the flags.  Exit codes: 0
success, 1 verification failure or engine disagreement, 2 usage error or
output that cannot be written, 3 resource-cap error.

`main(argv)` answers one request in-process and returns its exit code.
`run` is the process entry (`peakless`, `python -m peakless`): it calls
`main`, flushes stdout and stderr and ends with `os._exit`, skipping the
interpreter's teardown, so `atexit` callbacks (coverage, cProfile) do not
see the end of a request made that way; profile through `main` instead.

A request loads only what its subcommand runs.  Each option is declared
once, in `COMMANDS`; `read_argv` reads a well-formed argv from it, and
argparse (with gettext and locale) loads only for --help and usage
errors, in `build_parser`.  This module imports `render` and `errors`
(the budgets and the exit-code exceptions), and each handler imports its
own engine modules and calls them through the
module, `counting.peakless_series(...)`, so that a rebinding of a module
attribute reaches it.  `count` loads `counting` (and `decimal`) alone;
`bounded` and `export bounded` load `bounded` and `series`, and `dist`
both engine modules, because its total meets the closed form, but no
`series`.
`enumerate` loads `paths` alone and writes its listing one prefix block
at a time (`paths.prefix_blocks`): the paths sharing a prefix joined into
one string, in text one per line, in json each quoted with no escape,
since a path holds only the letters U, D and F.
"""
import os
import sys
import time
from types import SimpleNamespace

from . import render
from .errors import (
    DEFAULT_ORACLE_CAP,
    ORACLE_CAP_ENV,
    REPORT_CAPS,
    EngineDisagreement,
    ResourceLimitError,
)

FORMATS = ("text", "csv", "json")
TABLE_HEADER = ("n", "ell", "count")  # csv columns of A(n, l) rows
COLUMN_METHODS = ("cf", "det", "dp")  # the column streams of `export bounded`


def _emit(chunks, out):
    """Write text chunks to the file `out`, or to stdout without one.

    stdout is flushed here, so a write that fails raises its OSError to
    `main` (exit 2) and nothing is left to write when the process ends.
    """
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()


def _table_output(n_max, l_max, method, /, **meta):
    # the checked table of `bounded --table` and `export bounded`;
    # columns[l][n] = A(n, l), csv and json rows run n-major, l fastest
    from . import bounded

    columns = bounded.bounded_count_table(n_max, l_max, method)
    bounded.check_columns(columns, n_max, l_max, method)

    def cells():
        rows = enumerate(zip(*columns))
        return ((n, l, cell) for n, row in rows for l, cell in enumerate(row))

    return render.Output(
        text=lambda: render.batched(
            f"l={l}: " + " ".join(map(str, column)) + "\n"
            for l, column in enumerate(columns)
        ),
        json=lambda: render.json_text(
            dict(n_max=n_max, l_max=l_max, **meta, rows=cells()),
            render.json_record(TABLE_HEADER),
        ),
        header=TABLE_HEADER,
        rows=cells(),
    )


def _sequence_output(values, header, rows, **meta):
    # one sequence of exact terms: space-separated text, a json `counts` list
    # (`str` writes an int as the default encoder does) and csv `rows`
    return render.Output(
        text=lambda: render.batched(map(str, values), " ", "\n"),
        json=lambda: render.json_text(dict(meta, counts=values), str),
        header=header,
        rows=rows,
    )


def cmd_count(args):
    from . import counting

    n = args.order
    values = counting.peakless_decimals(n)  # exact, and linear to print
    counting.check_counts(values, n)
    return _sequence_output(values, ("n", "count"), enumerate(values), n_max=n)


def cmd_bounded(args):
    n, bound = args.order, args.bound
    if args.table:
        return _table_output(n, bound, "dp")
    from . import bounded

    values = bounded.bounded_column_dp(bound, n)
    bounded.check_columns([values], n, bound, "dp")
    rows = ((i, bound, v) for i, v in enumerate(values))
    return _sequence_output(values, TABLE_HEADER, rows, n_max=n, bound=bound)


def cmd_dist(args):
    from . import bounded

    stats = bounded.height_distribution(args.order)
    bounded.check_height_distribution(stats)
    pairs = list(enumerate(stats.distribution))
    return render.Output(
        text=lambda: render.batched(
            (f"{h}:{c}" for h, c in pairs), " ", f"  E[H]={stats.expected_height}\n"
        ),
        json=lambda: render.json_text(
            {
                "n": stats.n,
                "distribution": stats.distribution,
                "expected_height": str(stats.expected_height),
                "expected_height_float": float(stats.expected_height),
            }
        ),
        header=("height", "count"),
        rows=pairs,
    )


def cmd_enumerate(args):
    from . import paths

    constraints = paths.PathConstraints(
        peakless=args.peakless,
        max_height=args.bound,
        end_level=args.end_level,
    )
    # every error is raised at the call, before any output
    blocks = paths.prefix_blocks(args.order, constraints, cap=args.oracle_cap)

    def joined(sep):
        # the paths of each block, one prefix ahead of every suffix
        return (prefix + (sep + prefix).join(rests) for prefix, rests in blocks)

    # a path is a string over U, D, F, so json quotes it with no escape
    return render.Output(
        text=lambda: render.batched(joined("\n"), "\n", "\n"),
        json=lambda: render.json_text(
            {"n": args.order, "paths": joined('",\n    "')}, '"{}"'.format
        ),
    )


def cmd_verify(args):
    from . import verify

    start = time.perf_counter()
    results = verify.run_checks(args.level)
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r["ok"]]

    def text():
        for r in results:
            mark = "PASS" if r["ok"] else "FAIL"
            suffix = f": {r['detail']}" if r["detail"] else ""
            yield f"{mark} {r['check']}{suffix}\n"
        yield (
            f"{len(results) - len(failures)}/{len(results)} checks passed "
            f"({args.level}) in {elapsed:.2f}s\n"
        )
        if failures:
            # machine-readable failure list on top of the human summary
            yield from render.json_text({"failures": failures})

    return render.Output(
        text=text,
        # no timing here: json output is byte-stable for identical flags
        json=lambda: render.json_text(
            {"level": args.level, "results": results, "failures": failures}
        ),
        code=1 if failures else 0,
    )


def cmd_asympt(args):
    from . import asymptotics

    rows = asymptotics.convergence_report(args.kind, args.order, cap=args.cap)
    tolerance = asymptotics.REPORT_TOLERANCES[args.kind]

    def text():
        yield f"kind={args.kind} tolerance={tolerance}\n"
        for row in rows:
            yield (
                f"n={row.n} exact={row.exact} predicted={row.predicted} "
                f"ratio={row.ratio:.6f}\n"
            )

    return render.Output(
        text=text,
        json=lambda: render.json_text(
            {
                "kind": args.kind,
                "tolerance": tolerance,
                "rows": [row._asdict() for row in rows],
            }
        ),
        header=asymptotics.ReportRow._fields,
        rows=rows,
    )


def cmd_export(args):
    return _table_output(args.order, args.bound, args.method, method=args.method)


def _option(*flags, **spec):
    # one option: its flags and add_argument's keywords, dest and default spelt out
    spec.setdefault("default", False if spec.get("action") == "store_true" else None)
    return flags, dict(spec, dest=flags[-1][2:].replace("-", "_"))


def _output(formats=FORMATS):
    return [
        _option("--format", choices=formats, default=formats[0],
                help="output format (default %(default)s)"),
        _option("--out", help="write output to this file instead of stdout"),
    ]


def _length(order_help, formats=FORMATS):
    return [_option("-n", "--order", type=int, required=True, help=order_help),
            *_output(formats)]


def _report(formats, **kind):
    caps = ", ".join(f"{cap} for {name}" for name, cap in REPORT_CAPS.items())
    return [
        _option("--kind", choices=tuple(REPORT_CAPS), help="report kind", **kind),
        _option("-n", "--order", type=int, action="append", required=True,
                help="length to report (repeatable)"),
        _option("--cap", type=int, help=f"largest n (default: {caps})"),
        *_output(formats),
    ]


BOUND = _option("-l", "--bound", type=int, required=True, help="height bound")

# Every subcommand once, in help order: its words, help, handler and options;
# a group (`export`) has no handler.  build_parser and read_argv read only this.
COMMANDS = {
    ("count",): ("peakless Motzkin counts m(0..n)", cmd_count,
                 _length("largest length n")),
    ("bounded",): ("height-bounded counts A(n, l)", cmd_bounded, [
        *_length("largest length n"),
        BOUND,
        _option("--table", action="store_true",
                help="print all bounds 0..l, not just l"),
    ]),
    ("dist",): ("height distribution and expected height", cmd_dist,
                _length("path length n")),
    ("enumerate",): ("list paths in the U/D/F text format", cmd_enumerate, [
        *_length("path length n", ("text", "json")),
        _option("--peakless", action="store_true", help="forbid UD factors"),
        _option("-l", "--bound", type=int, help="height bound"),
        _option("--end-level", type=int, default=0, help="required final level"),
        _option("--oracle-cap", type=int,
                help="override the brute-force length cap (default "
                f"{DEFAULT_ORACLE_CAP} or {ORACLE_CAP_ENV})"),
    ]),
    ("verify",): ("run the cross-engine agreement suite", cmd_verify, [
        _option("--level", choices=("quick", "full"), default="quick",
                help="suite size"),
        *_output(("text", "json")),
    ]),
    ("asympt",): ("exact versus predicted convergence report", cmd_asympt,
                  _report(FORMATS, required=True)),
    ("export",): ("write a table in its stable schema", None, []),
    ("export", "bounded"): ("the A(n, l) table of bounded_count_table", cmd_export, [
        *_length("largest length n", ("csv", "json")),
        BOUND,
        _option("--method", choices=COLUMN_METHODS, default="cf",
                help="counting engine (default %(default)s)"),
    ]),
    ("export", "report"): ("the convergence report of asympt", cmd_asympt,
                           _report(("csv", "json"), default="count")),
}


def build_parser():
    """The argparse parser of COMMANDS, built for --help and usage errors."""
    import argparse

    about = "Exact enumeration of peakless Motzkin paths and their height statistics."
    parser = argparse.ArgumentParser(prog="peakless", description=about)
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (help, handler, options) in COMMANDS.items():
        p = groups[words[:-1]].add_parser(words[-1], help=help)
        if handler is None:
            groups[words] = p.add_subparsers(dest="what", required=True)
            continue
        for flags, spec in options:
            p.add_argument(*flags, **spec)
        p.set_defaults(handler=handler)
    return parser


def read_argv(argv):
    """The namespace `build_parser().parse_args(argv)` makes, or None.

    It reads a subcommand's words, then its options, each flag spelt as in
    COMMANDS and each value (a switch has none) the next word.  It leaves
    to argparse -h/--help, `--`, an unknown or abbreviated flag, the joined
    forms --opt=value and -n5, a missing required option, a value that
    int() or the choices reject, and a value starting with `-` unless it
    is a negative integer for an int option.
    """
    for words, (_, handler, options) in COMMANDS.items():
        if handler and tuple(argv[: len(words)]) == words:
            break
    else:
        return None
    values = dict(zip(("command", "what"), words), handler=handler)
    values.update((spec["dest"], spec["default"]) for _, spec in options)
    specs = {flag: spec for flags, spec in options for flag in flags}
    missing = {spec["dest"] for _, spec in options if spec.get("required")}
    rest = iter(argv[len(words) :])
    for flag in rest:
        spec = specs.get(flag)
        if spec is None:
            return None
        dest, action, convert = spec["dest"], spec.get("action"), spec.get("type", str)
        missing.discard(dest)
        if action == "store_true":
            values[dest] = True
            continue
        value = next(rest, "-")
        negative_int = convert is int and value[1:].isascii() and value[1:].isdigit()
        if value.startswith("-") and not negative_int:
            return None
        try:
            value = convert(value)
        except ValueError:
            return None
        if value not in spec.get("choices", [value]):
            return None
        values[dest] = [*(values[dest] or ()), value] if action == "append" else value
    return None if missing else SimpleNamespace(**values)


def main(argv=None):
    """Answer one request in this process and return its exit code.

    `read_argv` reads a well-formed request; any other argv goes to
    argparse, whose --help and usage errors raise SystemExit, and nothing
    else ends the process.  Exact counts run past Python's int-to-str digit
    limit (4300 digits by default, m(n) for n > ~10 290), in the output and
    in a disagreement's message alike, so the limit is lifted while the
    request is answered and restored afterwards.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv) or build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _answer(args)
    finally:
        sys.set_int_max_str_digits(limit)


def _answer(args):
    try:
        output = args.handler(args)
    except EngineDisagreement as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        _emit(render.render(output, args.format), args.out)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return output.code


def run():
    """The `peakless` command: `main`, then an exit that skips teardown.

    Interpreter teardown is the largest fixed cost of a request that the
    program controls, so once the output is flushed the process ends with
    `os._exit`; `atexit` callbacks do not run, so profile through `main`.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # main reported a failed write, which fails again here
            code = code or 2
    os._exit(code)


if __name__ == "__main__":
    run()
