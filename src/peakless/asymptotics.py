"""Singularity constants and convergence reports against exact counts.

The generating function of the peakless counts has its dominant
singularity at rho = (3 - sqrt 5)/2, a root of 1 - 3z + z^2 (the other
real root is 1/rho = (3 + sqrt 5)/2, the square of the golden ratio; the
roots of the companion factor 1 + z + z^2 sit on the unit circle and are
irrelevant).  A square-root singular expansion with amplitude 5^{1/4}
gives the coefficient prediction

    m(n) ~ 5^{1/4} rho^{-n-1} / (2 sqrt(pi) n^{3/2}),

which the reports compare against exact values from the recurrence
engine, each held to the closed form by `counting.check_far_end`; only an
average-height report loads the strip engines of `bounded`.
`predicted_avg_height` gives the recorded large-n prediction
2 * 5^{-1/4} * sqrt(pi n) for the average height; the convergence
reports log the measured exact-to-predicted ratios verbatim, without
smoothing.
Those ratios approach 1/2: a long path's height is asymptotically
sigma sqrt(n) times the maximum of a Brownian excursion (mean
sqrt(pi/2)), and the no-UD step variance sigma^2 = 2/sqrt(5) gives
E[H] ~ 5^{-1/4} sqrt(pi n).

Ratios are always computed in log space.  Converting a huge exact integer
to a float would overflow; math.log takes arbitrary-size ints directly,
so no manual mantissa splitting is needed.
"""
import math
import operator
from collections import namedtuple

from . import counting
from .errors import REPORT_CAPS, ResourceLimitError, check_sizes

RHO = (3.0 - math.sqrt(5.0)) / 2.0
SINGULAR_AMPLITUDE = 5.0**0.25
AVG_HEIGHT_CONSTANT = 2.0 * 5.0**-0.25  # 1.337480610...
MOTZKIN_HEIGHT_CONSTANT = 3.0**-0.5  # 0.5773502691...

# comparison budgets recorded in report metadata, applied by nothing: the
# count prediction has an O(1/n) correction (1% at n = 2000); the height
# ratio is recorded verbatim, and no row meets its budget (0.384-0.457 for
# n = 50-400 against the recorded 2 * 5^{-1/4} sqrt(pi n)).
REPORT_TOLERANCES = {"count": 1e-2, "avg_height": 0.15}


def log_predicted_count(n):
    """log of the singularity-analysis count prediction, overflow-free."""
    check_sizes("length", [n], least=1)
    return (
        math.log(SINGULAR_AMPLITUDE)
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
    check_sizes("length", [n], least=1)
    return AVG_HEIGHT_CONSTANT * math.sqrt(math.pi * n)


def _display_value(value, log_value):
    # floats stay floats; out-of-range magnitudes become mantissa/exponent
    # strings derived from the (always finite) natural log
    if value != math.inf:
        return value
    log10 = log_value / math.log(10.0)
    exponent = math.floor(log10)
    mantissa = 10.0 ** (log10 - exponent)
    return f"{mantissa:.9f}e+{exponent}"


ReportRow = namedtuple("ReportRow", "n exact predicted ratio")

REPORT_HEADER = ReportRow._fields


class ConvergenceReport(namedtuple("ConvergenceReport", "kind tolerance rows")):
    """Exact-versus-predicted table; ratios are recorded verbatim."""

    __slots__ = ()


def convergence_report(kind, n_values, cap=None):
    """Exact counts or exact average heights against their predictions.

    Parameters
    ----------
    kind : str
        "count" (exact values from the recurrence engine, each held to the
        closed form by `counting.check_far_end`) or "avg_height" (exact
        expectations from height distributions, each held by
        `bounded.check_height_distribution`); EngineDisagreement on a fault.
    n_values : iterable of int
        Lengths to report, kept in the given order; may be empty.
    cap : int, optional
        Largest n allowed, default REPORT_CAPS[kind].  The recurrence is
        cheap (default 10000); each exact average height costs the middle
        joins of every bound l <= n/2, branches of one shared pass of
        half-length automaton walks (0.03-0.05 s at n = 300 and 0.16-0.29 s
        at n = 500, in-process on a shared 2-CPU machine), so the default
        is 500.  The cap goes through `ResourceLimitError.check`:
        out-of-budget lengths raise ResourceLimitError rather than being
        silently dropped, and a negative cap raises ValueError.
    """
    if kind not in REPORT_CAPS:
        raise ValueError(f"unknown report kind {kind!r}")
    ns = list(map(operator.index, n_values))
    check_sizes("report length", ns, least=1)
    ResourceLimitError.check(
        f"{kind} report", ns, REPORT_CAPS[kind] if cap is None else cap
    )

    rows = []
    if kind == "count":
        values = counting.peakless_recurrence(max(ns)) if ns else []
        for n in ns:
            exact = values[n]
            counting.check_far_end("recurrence", exact, n)
            rows.append(
                ReportRow(
                    n=n,
                    exact=_display_value(
                        float(exact) if exact.bit_length() < 1000 else math.inf,
                        math.log(exact),
                    ),
                    predicted=_display_value(
                        predicted_count(n), log_predicted_count(n)
                    ),
                    ratio=count_ratio(n, exact),
                )
            )
    else:
        from . import bounded

        for n in ns:
            stats = bounded.height_distribution(n)
            bounded.check_height_distribution(stats)
            exact = stats.expected_height_float
            predicted = predicted_avg_height(n)
            rows.append(
                ReportRow(n=n, exact=exact, predicted=predicted, ratio=exact / predicted)
            )
    return ConvergenceReport(
        kind=kind, tolerance=REPORT_TOLERANCES[kind], rows=tuple(rows)
    )
