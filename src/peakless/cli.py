"""Command-line interface.

Subcommands: count, bounded, dist, enumerate, verify, asympt, export.
Each handler computes its data once and returns a `render.Output`; `main`
prints it in the requested format.  Text output is for humans; --format
csv and --format json are stable machine formats whose bytes depend only
on the flags.  Exit codes: 0 success, 1 verification failure or engine
disagreement, 2 usage error, 3 resource-cap error.
"""
import argparse
import sys
import time

from . import asymptotics, counting, paths, render, verify
from .errors import EngineDisagreement, OracleLimitError, ResourceLimitError

CROSS_CHECK_LIMIT = 200  # count engines are cross-checked up to here
FORMATS = ("text", "csv", "json")


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _table_payload(rows, **meta):
    return dict(meta, rows=[{"n": n, "ell": l, "count": c} for n, l, c in rows])


def cmd_count(args):
    n = args.order
    values = counting.peakless_recurrence(n)
    check_to = min(n, CROSS_CHECK_LIMIT)
    series = counting.peakless_series(check_to)
    mismatches = [
        (i, series[i], values[i]) for i in range(check_to + 1) if series[i] != values[i]
    ]
    if mismatches:
        i, a, b = mismatches[0]
        raise EngineDisagreement(
            f"engine disagreement at n={i}: functional equation {a}, recurrence {b} "
            f"({len(mismatches)} mismatching terms)"
        )
    return render.Output(
        text=lambda: " ".join(map(str, values)) + "\n",
        payload={"n_max": n, "counts": values},
        header=("n", "count"),
        rows=enumerate(values),
    )


def cmd_bounded(args):
    n, bound = args.order, args.bound
    cf = counting.bounded_series_cf(bound, n)
    if bound >= 1:
        det = counting.bounded_series_det(bound, n)
        if det != cf:
            bad = next(i for i in range(n + 1) if det[i] != cf[i])
            raise EngineDisagreement(
                f"engine disagreement at n={bad}, bound={bound}: "
                f"ladder {cf[bad]}, determinant {det[bad]}"
            )
    if args.table:
        rows = counting.bounded_count_table(n, bound)
        # rows run n-major, so column l is every (bound + 1)-th row from l
        return render.Output(
            text=lambda: "".join(
                f"l={l}: " + " ".join(str(c) for _, _, c in rows[l :: bound + 1]) + "\n"
                for l in range(bound + 1)
            ),
            payload=_table_payload(rows, n_max=n, l_max=bound),
            header=counting.TABLE_HEADER,
            rows=rows,
        )
    values = list(cf.coeffs)
    return render.Output(
        text=lambda: " ".join(map(str, values)) + "\n",
        payload={"n_max": n, "bound": bound, "counts": values},
        header=counting.TABLE_HEADER,
        rows=((i, bound, v) for i, v in enumerate(values)),
    )


def cmd_dist(args):
    stats = counting.height_distribution(args.order)
    pairs = list(enumerate(stats.distribution))
    return render.Output(
        text=lambda: " ".join(f"{h}:{c}" for h, c in pairs)
        + f"  E[H]={stats.expected_height}\n",
        payload={
            "n": stats.n,
            "distribution": list(stats.distribution),
            "expected_height": str(stats.expected_height),
            "expected_height_float": stats.expected_height_float,
        },
        header=("height", "count"),
        rows=pairs,
    )


def cmd_enumerate(args):
    constraints = paths.PathConstraints(
        peakless=args.peakless,
        max_height=args.bound,
        end_level=args.end_level,
    )
    walked = list(paths.enumerate_paths(args.order, constraints, cap=args.oracle_cap))
    return render.Output(
        text=lambda: "\n".join(walked) + "\n" if walked else "",
        payload={"n": args.order, "paths": walked},
    )


def cmd_verify(args):
    start = time.perf_counter()
    results = verify.run_checks(args.level)
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r["ok"]]

    def text():
        lines = []
        for r in results:
            mark = "PASS" if r["ok"] else "FAIL"
            suffix = f": {r['detail']}" if r["detail"] else ""
            lines.append(f"{mark} {r['check']}{suffix}")
        lines.append(
            f"{len(results) - len(failures)}/{len(results)} checks passed "
            f"({args.level}) in {elapsed:.2f}s"
        )
        text = "\n".join(lines) + "\n"
        if failures:
            # machine-readable failure list on top of the human summary
            text += render.json_text({"failures": failures})
        return text

    return render.Output(
        text=text,
        # no timing here: json output is byte-stable for identical flags
        payload={"level": args.level, "results": results, "failures": failures},
        code=1 if failures else 0,
    )


def cmd_asympt(args):
    report = asymptotics.convergence_report(
        args.kind,
        args.order,
        count_cap=args.count_cap,
        height_cap=args.height_cap,
    )

    def text():
        lines = [f"kind={report.kind} tolerance={report.tolerance}"]
        for row in report.rows:
            lines.append(
                f"n={row.n} exact={row.exact} predicted={row.predicted} ratio={row.ratio:.6f}"
            )
        return "\n".join(lines) + "\n"

    return render.Output(
        text=text,
        payload=report.payload(),
        header=asymptotics.REPORT_HEADER,
        rows=report.csv_rows(),
    )


def cmd_export(args):
    if args.what == "report":
        return cmd_asympt(args)
    rows = counting.bounded_count_table(args.order, args.bound, method=args.method)
    return render.Output(
        payload=_table_payload(
            rows, n_max=args.order, l_max=args.bound, method=args.method
        ),
        header=counting.TABLE_HEADER,
        rows=rows,
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="peakless",
        description="Exact enumeration of peakless Motzkin paths and their height statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output_options(p, formats=FORMATS):
        p.add_argument(
            "--format",
            choices=formats,
            default=formats[0],
            help="output format (default %(default)s)",
        )
        p.add_argument("--out", help="write output to this file instead of stdout")

    def common(p, order_help, formats=FORMATS):
        p.add_argument("-n", "--order", type=int, required=True, help=order_help)
        output_options(p, formats)

    p = sub.add_parser("count", help="peakless Motzkin counts m(0..n)")
    common(p, "largest length n")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("bounded", help="height-bounded counts A(n, l)")
    common(p, "largest length n")
    p.add_argument("-l", "--bound", type=int, required=True, help="height bound")
    p.add_argument(
        "--table", action="store_true", help="print all bounds 0..l, not just l"
    )
    p.set_defaults(handler=cmd_bounded)

    p = sub.add_parser("dist", help="height distribution and expected height")
    common(p, "path length n")
    p.set_defaults(handler=cmd_dist)

    p = sub.add_parser("enumerate", help="list paths in the U/D/F text format")
    common(p, "path length n", formats=("text", "json"))
    p.add_argument("--peakless", action="store_true", help="forbid UD factors")
    p.add_argument("-l", "--bound", type=int, default=None, help="height bound")
    p.add_argument("--end-level", type=int, default=0, help="required final level")
    p.add_argument(
        "--oracle-cap",
        type=int,
        default=None,
        help="override the brute-force length cap (default 16 or "
        "PEAKLESS_ORACLE_CAP)",
    )
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", help="run the cross-engine agreement suite")
    p.add_argument(
        "--level", choices=("quick", "full"), default="quick", help="suite size"
    )
    output_options(p, formats=("text", "json"))
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("asympt", help="exact versus predicted convergence report")
    p.add_argument(
        "--kind", choices=("count", "avg_height"), required=True, help="report kind"
    )
    p.add_argument(
        "-n",
        "--order",
        type=int,
        action="append",
        required=True,
        help="length to report (repeatable)",
    )
    p.add_argument("--count-cap", type=int, default=None, help="budget for count rows")
    p.add_argument(
        "--height-cap", type=int, default=None, help="budget for avg_height rows"
    )
    output_options(p)
    p.set_defaults(handler=cmd_asympt)

    p = sub.add_parser("export", help="write a table in its stable schema")
    p.add_argument("what", choices=("bounded", "report"), help="which table")
    p.add_argument("-n", "--order", type=int, action="append", required=True)
    p.add_argument("-l", "--bound", type=int, default=None)
    p.add_argument("--method", choices=("cf", "det", "dp"), default="cf")
    p.add_argument("--kind", choices=("count", "avg_height"), default="count")
    p.add_argument("--count-cap", type=int, default=None)
    p.add_argument("--height-cap", type=int, default=None)
    output_options(p, formats=("csv", "json"))
    p.set_defaults(handler=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "export" and args.what == "bounded":
        if args.bound is None:
            parser.error("export bounded requires -l/--bound")
        if len(args.order) != 1:
            parser.error("export bounded takes exactly one -n")
        args.order = args.order[0]
    try:
        output = args.handler(args)
        _emit(render.render(output, args.format), args.out)
        return output.code
    except EngineDisagreement as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except (OracleLimitError, ResourceLimitError) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
