"""Singularity constants and convergence reports against exact counts.

The generating function of the peakless counts has its dominant
singularity at rho = (3 - sqrt 5)/2, a root of 1 - 3z + z^2 (the other
real root is 1/rho = (3 + sqrt 5)/2, the square of the golden ratio; the
roots of the companion factor 1 + z + z^2 sit on the unit circle and are
irrelevant).  A square-root singular expansion with amplitude 5^{1/4}
gives the coefficient prediction

    m(n) ~ 5^{1/4} rho^{-n-1} / (2 sqrt(pi) n^{3/2}),

which the reports compare against exact values from the recurrence
engine.  `predicted_avg_height` renders the recorded large-n prediction
2 * 5^{-1/4} * sqrt(pi n) for the average height; the convergence reports
log the measured exact-to-predicted ratios verbatim, without smoothing.
Those ratios approach 1/2: a long path's height is asymptotically
sigma sqrt(n) times the maximum of a Brownian excursion (mean
sqrt(pi/2)), and the no-UD step variance sigma^2 = 2/sqrt(5) gives
E[H] ~ 5^{-1/4} sqrt(pi n).

Ratios are always computed in log space.  Converting a huge exact integer
to a float would overflow; math.log takes arbitrary-size ints directly,
so no manual mantissa splitting is needed.
"""
import math
from dataclasses import asdict, astuple, dataclass, fields

from . import counting, render
from .errors import ResourceLimitError

RHO = (3.0 - math.sqrt(5.0)) / 2.0
INV_RHO = (3.0 + math.sqrt(5.0)) / 2.0
SINGULAR_AMPLITUDE = 5.0**0.25
AVG_HEIGHT_CONSTANT = 2.0 * 5.0**-0.25  # 1.337480610...
MOTZKIN_HEIGHT_CONSTANT = 3.0**-0.5  # 0.5773502691...

# budgets for exact reference values (see convergence_report)
DEFAULT_COUNT_CAP = 10_000
DEFAULT_HEIGHT_CAP = 500

# comparison budgets recorded in report metadata: the count prediction has
# an O(1/n) correction (1% at n = 2000); the height ratio is recorded
# verbatim and its budget reflects an O(1/sqrt n) correction scale.
REPORT_TOLERANCES = {"count": 1e-2, "avg_height": 0.15}


def log_predicted_count(n):
    """log of the singularity-analysis count prediction, overflow-free."""
    if n < 1:
        raise ValueError("prediction needs n >= 1")
    return (
        0.25 * math.log(5.0)
        - (n + 1) * math.log(RHO)
        - math.log(2.0)
        - 0.5 * math.log(math.pi)
        - 1.5 * math.log(n)
    )


def predicted_count(n):
    """5^{1/4} rho^{-n-1} / (2 sqrt(pi) n^{3/2}); inf past float range."""
    try:
        return math.exp(log_predicted_count(n))
    except OverflowError:
        return math.inf


def count_ratio(n, exact=None):
    """Exact m(n) divided by the predicted count, evaluated in log space."""
    if exact is None:
        exact = counting.peakless_recurrence(n)[n]
    return math.exp(math.log(exact) - log_predicted_count(n))


def predicted_avg_height(n):
    """Recorded large-n prediction 2 * 5^{-1/4} * sqrt(pi n)."""
    if n < 1:
        raise ValueError("prediction needs n >= 1")
    return AVG_HEIGHT_CONSTANT * math.sqrt(math.pi * n)


def motzkin_height_reference(n):
    """sqrt(pi n / 3), the average height of unrestricted Motzkin paths."""
    if n < 1:
        raise ValueError("prediction needs n >= 1")
    return math.sqrt(math.pi * n / 3.0)


def _render_value(value, log_value=None):
    # floats stay floats; out-of-range magnitudes become mantissa/exponent
    # strings derived from the (always finite) natural log
    if value is not None and value != math.inf:
        return value
    log10 = log_value / math.log(10.0)
    exponent = math.floor(log10)
    mantissa = 10.0 ** (log10 - exponent)
    return f"{mantissa:.9f}e+{exponent}"


@dataclass(frozen=True)
class ReportRow:
    n: int
    exact: object
    predicted: object
    ratio: float


REPORT_HEADER = tuple(f.name for f in fields(ReportRow))


@dataclass(frozen=True)
class ConvergenceReport:
    """Exact-versus-predicted table; ratios are recorded verbatim."""

    kind: str
    tolerance: float
    rows: tuple

    def csv_rows(self):
        """One (n, exact, predicted, ratio) tuple per row, REPORT_HEADER order."""
        return [astuple(row) for row in self.rows]

    def payload(self):
        """The report as the json object that `to_json` prints."""
        rows = [asdict(row) for row in self.rows]
        return {"kind": self.kind, "tolerance": self.tolerance, "rows": rows}

    def to_csv(self):
        return render.csv_text(REPORT_HEADER, self.csv_rows())

    def to_json(self):
        return render.json_text(self.payload())


def convergence_report(kind, n_values, count_cap=None, height_cap=None):
    """Exact counts or exact average heights against their predictions.

    Parameters
    ----------
    kind : str
        "count" (exact values from the recurrence engine) or "avg_height"
        (exact expectations from the height-distribution DP).
    n_values : iterable of int
        Lengths to report, kept in the given order; may be empty.
    count_cap, height_cap : int, optional
        Budget knobs.  The recurrence is cheap (default cap 10000); each
        exact average height costs O(n^3) big-int additions, so the
        default cap is 500.  Out-of-budget requests raise
        ResourceLimitError rather than silently truncating.
    """
    if kind not in ("count", "avg_height"):
        raise ValueError(f"unknown report kind {kind!r}")
    ns = [int(n) for n in n_values]
    if any(n < 1 for n in ns):
        raise ValueError("report lengths must be >= 1")
    cap = (
        (DEFAULT_COUNT_CAP if count_cap is None else count_cap)
        if kind == "count"
        else (DEFAULT_HEIGHT_CAP if height_cap is None else height_cap)
    )
    over = [n for n in ns if n > cap]
    if over:
        raise ResourceLimitError(
            f"{kind} report limited to n <= {cap}; out of budget: {over}"
        )

    rows = []
    if kind == "count":
        values = counting.peakless_recurrence(max(ns)) if ns else []
        for n in ns:
            exact = values[n]
            log_exact = math.log(exact)
            log_pred = log_predicted_count(n)
            exact_rendered = _render_value(
                float(exact) if exact.bit_length() < 1000 else math.inf, log_exact
            )
            pred_rendered = _render_value(predicted_count(n), log_pred)
            rows.append(
                ReportRow(
                    n=n,
                    exact=exact_rendered,
                    predicted=pred_rendered,
                    ratio=math.exp(log_exact - log_pred),
                )
            )
    else:
        for n in ns:
            stats = counting.height_distribution(n)
            exact = stats.expected_height_float
            predicted = predicted_avg_height(n)
            rows.append(
                ReportRow(n=n, exact=exact, predicted=predicted, ratio=exact / predicted)
            )
    return ConvergenceReport(
        kind=kind, tolerance=REPORT_TOLERANCES[kind], rows=tuple(rows)
    )
