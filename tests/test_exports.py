import types

import peakless


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(peakless).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(peakless.__all__) == sorted(public)  # no stale or doubled name
    namespace = {}
    exec("from peakless import *", namespace)
    assert public <= set(namespace)
