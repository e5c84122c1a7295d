"""The package's public namespace and its runtime dependencies."""

import ast
import importlib
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


def fresh_import(check):
    """The output of ``check``, run in a new interpreter that imports the
    package from this source tree."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(beideals.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", check], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip()


def test_import_loads_only_the_standard_library():
    check = (
        "import sys; before = set(sys.modules); import beideals; "
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'beideals'}))"
    )
    assert fresh_import(check) == "[]"


def test_import_leaves_multiprocessing_unloaded():
    # classify_range imports it only when it starts worker processes
    check = "import sys, beideals; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    assert fresh_import(check) == "[]"


def test_benchmark_imports_resolve():
    # the benchmark scripts import some names straight from the package's
    # modules, and no other test runs them; each such name must exist
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    checked = []
    for script in sorted(perfbench.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "beideals":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (script.name, node.module, alias.name)
                    checked.append(alias.name)
    assert "restriction_faces" in checked
