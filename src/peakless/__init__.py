"""Exact enumeration of peakless Motzkin paths.

Counts Motzkin paths with no up-step immediately followed by a down-step
(OEIS A004148), with and without a height bound, through several
independent exact engines that are required to agree, plus brute-force
oracles, height statistics, and asymptotic convergence reports.

The public names below are served lazily (PEP 562): `import peakless`
loads no submodule, and `peakless.X` or `from peakless import X` imports
only the module that defines X, so a command-line request pays only for
the engines it runs.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "asymptotics": """AVG_HEIGHT_CONSTANT ConvergenceReport
            MOTZKIN_HEIGHT_CONSTANT RHO SINGULAR_AMPLITUDE convergence_report
            count_ratio log_predicted_count predicted_avg_height predicted_count""",
        "bounded": """HeightStats bounded_column_dp bounded_count_dp
            bounded_count_table bounded_series_cf bounded_series_det determinant_poly
            height_distribution strip_denominator_poly strip_family""",
        "counting": """end_level_series end_level_stream kernel_residual
            kernel_root_series motzkin_numbers peakless_recurrence peakless_series
            pretty_cf_agreement pretty_cf_series""",
        "errors": "OracleLimitError ResourceLimitError",
        "oracle": "brute_force_count classification_table height_counts",
        "paths": """DOWN FLAT UP PathConstraints automaton_accepts
            enumerate_paths has_peak height is_valid_prefix level_profile
            oracle_cap""",
        "series": "Series poly_divide_series",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
