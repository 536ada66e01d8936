import pytest

import peakless


# the public surface, sorted: an addition or a removal shows in this list
PUBLIC = """
    AVG_HEIGHT_CONSTANT DOWN EngineDisagreement FLAT HeightStats
    MOTZKIN_HEIGHT_CONSTANT OracleLimitError PathConstraints RHO ResourceLimitError
    SINGULAR_AMPLITUDE Series UP automaton_accepts bounded_column_dp
    bounded_count_table bounded_counts_dp bounded_series_det brute_force_count
    check_columns check_counts check_far_end check_height_distribution
    check_oracle_length classification_table convergence_report count_ratio
    end_level_stream enumerate_paths has_peak height height_counts
    height_distribution is_valid_prefix
    level_profile log_predicted_count motzkin_numbers oracle_cap
    peakless_closed_form peakless_decimals peakless_recurrence peakless_series
    poly_divide_series poly_mul poly_neg poly_sub poly_trim predicted_avg_height
    predicted_count prefix_blocks pretty_cf_agreements pretty_cf_stream
    strip_family
""".split()


def test_all_lists_exactly_the_public_names():
    # served lazily: each name resolves through getattr and is in dir()
    assert peakless.__all__ == PUBLIC
    listed = set(dir(peakless))
    for name in peakless.__all__:
        assert getattr(peakless, name) is not None, name
        assert name in listed, name


def test_star_import_yields_exactly_all():
    namespace = {}
    exec("from peakless import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(peakless.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        peakless.no_such_name


def test_a_check_raises_the_exported_disagreement():
    with pytest.raises(peakless.EngineDisagreement, match="x 0, closed form 423"):
        peakless.check_far_end("x", 0, 10)
