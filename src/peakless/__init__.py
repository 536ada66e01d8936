"""Exact enumeration of peakless Motzkin paths.

Counts Motzkin paths with no up-step immediately followed by a down-step
(OEIS A004148), with and without a height bound, through several
independent exact engines that are required to agree, plus brute-force
oracles, height statistics, and asymptotic convergence reports.
"""
from .asymptotics import (
    AVG_HEIGHT_CONSTANT,
    INV_RHO,
    MOTZKIN_HEIGHT_CONSTANT,
    RHO,
    SINGULAR_AMPLITUDE,
    ConvergenceReport,
    convergence_report,
    count_ratio,
    log_predicted_count,
    predicted_avg_height,
    predicted_count,
)
from .counting import (
    HeightStats,
    bounded_column_dp,
    bounded_count_dp,
    bounded_count_table,
    bounded_series_cf,
    bounded_series_det,
    determinant_poly,
    end_level_series,
    height_distribution,
    kernel_residual,
    kernel_root_series,
    motzkin_numbers,
    peakless_recurrence,
    peakless_series,
    pretty_cf_agreement,
    pretty_cf_series,
    strip_denominator_poly,
)
from .errors import OracleLimitError, ResourceLimitError
from .oracle import brute_force_count, classification_table, height_counts
from .paths import (
    DOWN,
    FLAT,
    UP,
    PathConstraints,
    automaton_accepts,
    enumerate_paths,
    has_peak,
    height,
    is_valid_prefix,
    level_profile,
    oracle_cap,
)
from .series import Series, poly_divide_series

__version__ = "0.1.0"

__all__ = [
    "AVG_HEIGHT_CONSTANT",
    "ConvergenceReport",
    "DOWN",
    "FLAT",
    "HeightStats",
    "INV_RHO",
    "MOTZKIN_HEIGHT_CONSTANT",
    "OracleLimitError",
    "PathConstraints",
    "RHO",
    "ResourceLimitError",
    "Series",
    "SINGULAR_AMPLITUDE",
    "UP",
    "automaton_accepts",
    "bounded_column_dp",
    "bounded_count_dp",
    "bounded_count_table",
    "bounded_series_cf",
    "bounded_series_det",
    "brute_force_count",
    "classification_table",
    "convergence_report",
    "count_ratio",
    "determinant_poly",
    "end_level_series",
    "enumerate_paths",
    "has_peak",
    "height",
    "height_counts",
    "height_distribution",
    "is_valid_prefix",
    "kernel_residual",
    "kernel_root_series",
    "level_profile",
    "log_predicted_count",
    "motzkin_numbers",
    "oracle_cap",
    "peakless_recurrence",
    "peakless_series",
    "poly_divide_series",
    "predicted_avg_height",
    "predicted_count",
    "pretty_cf_agreement",
    "pretty_cf_series",
    "strip_denominator_poly",
]
