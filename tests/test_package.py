"""The package's public namespace."""

import types

import beideals


def test_star_import_exports_no_submodules():
    namespace = {}
    exec("from beideals import *", namespace)
    modules = [name for name, obj in namespace.items() if isinstance(obj, types.ModuleType)]
    assert modules == []
    assert set(beideals.__all__) <= set(namespace)
    assert len(set(beideals.__all__)) == len(beideals.__all__)
