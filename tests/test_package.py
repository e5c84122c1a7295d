"""The package's public namespace and its runtime dependencies."""

import os
import pathlib
import subprocess
import sys
import types

import beideals


def test_star_import_exports_no_submodules():
    namespace = {}
    exec("from beideals import *", namespace)
    modules = [name for name, obj in namespace.items() if isinstance(obj, types.ModuleType)]
    assert modules == []
    assert set(beideals.__all__) <= set(namespace)
    assert len(set(beideals.__all__)) == len(beideals.__all__)


def test_import_loads_only_the_standard_library():
    # multiprocessing registers __mp_main__, an alias of __main__
    check = (
        "import sys; before = set(sys.modules); import beideals; "
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'beideals', '__mp_main__'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(beideals.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", check], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
