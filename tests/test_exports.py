import pytest

import peakless


def test_all_lists_exactly_the_public_names():
    # served lazily: each name resolves through getattr and is in dir()
    assert len(peakless.__all__) == len(set(peakless.__all__))
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
