"""Exact enumeration of peakless Motzkin paths.

Counts Motzkin paths with no up-step immediately followed by a down-step
(OEIS A004148), with and without a height bound, through several
independent exact engines that are required to agree, plus brute-force
oracles, height statistics, and asymptotic convergence reports.

The public names below are the functions that command-line requests run,
engines and the `check_*` functions that hold each printed number to a
second route, with their classes, constants and errors; the one exported
function no request calls is `brute_force_count`, a prefix sum of
`height_counts` kept for callers that count by `PathConstraints`.  The
tests hold the list to the calls of the benchmark's pinned requests.

They are served lazily (PEP 562): `import peakless`
loads no submodule, and `peakless.X` or `from peakless import X` imports
only the module that defines X, so a command-line request pays only for
the engines it runs.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "asymptotics": """AVG_HEIGHT_CONSTANT MOTZKIN_HEIGHT_CONSTANT RHO
            SINGULAR_AMPLITUDE convergence_report count_ratio
            log_predicted_count predicted_avg_height predicted_count""",
        "bounded": """HeightStats bounded_column_dp bounded_count_table
            bounded_counts_dp bounded_series_det check_columns
            check_height_distribution height_distribution strip_family""",
        "counting": """check_counts check_far_end end_level_stream
            motzkin_numbers peakless_closed_form peakless_decimals
            peakless_recurrence peakless_series pretty_cf_agreements
            pretty_cf_stream""",
        "errors": "EngineDisagreement OracleLimitError ResourceLimitError",
        "oracle": "brute_force_count classification_table height_counts",
        "paths": """DOWN FLAT UP PathConstraints automaton_accepts
            check_oracle_length enumerate_paths has_peak height is_valid_prefix
            level_profile oracle_cap prefix_blocks""",
        "series": "Series poly_divide_series poly_mul poly_neg poly_sub poly_trim",
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
