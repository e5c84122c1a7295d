"""The package's public namespace and its runtime dependencies."""

import ast
import contextlib
import importlib
import io
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


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_imports_resolve():
    # the benchmark scripts import some names straight from the package's
    # modules, and no other test runs them; each such name must exist
    checked = []
    for script in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "beideals":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (script.name, node.module, alias.name)
                    checked.append(alias.name)
    assert "restriction_faces" in checked
    # they reach the rest as ``bd.<name>`` and ``bd.<module>.<name>``, and
    # through local aliases such as ``classify = bd.classify``
    chains = benchmark_attribute_chains()
    assert {"adjacency_code", "classify.classify_graph", "edgeideals.fedder_check",
            "groebner.buchberger", "graphs.admissible_paths"} <= chains


def attribute_chain(node) -> list:
    """["bd", "graphs", "relabel"] for ``bd.graphs.relabel``; [] when the
    chain does not start at a plain name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else []


def benchmark_attribute_chains() -> set:
    """Every attribute chain on the package in the workloads and the golden
    script, resolved or failing an assertion, as dotted names below it.

    ``bd`` names the package; a name a function binds to ``bd.<module>``,
    alone or in a tuple assignment, names that module within the function.
    """
    checked = set()
    for script in ("workloads.py", "golden.py"):
        tree = ast.parse((ROOT / "perfbench" / script).read_text())
        for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            aliases = {"bd": []}
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                    pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                             and isinstance(value, ast.Tuple) else [(target, value)])
                    for name, chain in ((t, attribute_chain(v)) for t, v in pairs):
                        if isinstance(name, ast.Name) and chain[:1] == ["bd"] and len(chain) == 2:
                            aliases[name.id] = chain[1:]
            for node in ast.walk(func):
                chain = attribute_chain(node) if isinstance(node, ast.Attribute) else []
                if chain and chain[0] in aliases:
                    obj = beideals
                    for attr in aliases[chain[0]] + chain[1:]:
                        assert hasattr(obj, attr), (script, func.name, ".".join(chain))
                        obj = getattr(obj, attr)
                    checked.add(".".join(aliases[chain[0]] + chain[1:]))
    return checked


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "3\n"


def test_mutants_target_text_that_occurs_once():
    # the mutation harness (python tests/mutants.py) edits its old texts;
    # one that a refactor removed or duplicated would test nothing
    import mutants

    assert len({m[0] for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for name, file, old, new, tests in mutants.MUTANTS:
        assert old != new, name
        assert (mutants.PACKAGE / file).read_text().count(old) == 1, name
        for node in tests:
            path, test = node.split("::")
            assert f"def {test}(" in (ROOT / path).read_text(), (name, node)
