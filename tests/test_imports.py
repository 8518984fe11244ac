"""Every module-level import in the package is used, or re-exported through __all__, every module-level
private name is used somewhere in the package, and importing the CLI loads only light standard modules."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import threshold_lab

PACKAGE = Path(__file__).parent.parent / "src" / "threshold_lab"
SOURCES = sorted(PACKAGE.glob("*.py"))

LIBRARY_MODULES = ("bayes_evidence", "binomial_kernel", "gaussian_numerics", "power_design", "replicability",
                   "sweep_report")

# Names a module imports only so that callers can import them from it.
RE_EXPORTS = {"binomial_kernel.py": {"MAX_N"}}


def unused_imports(tree: ast.Module) -> set[str]:
    """Imported names neither used nor in __all__; `from m import *` is "m.*", re-exported by `*m.__all__`."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.ImportFrom) and node.names[0].name == "*":
            imported.add(f"{node.module}.*")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {_exported(elt) for elt in node.value.elts}
    return imported - used - exported


def _exported(elt: ast.expr) -> str:
    # a name literal, or a spliced-in `*m.__all__`, which re-exports `from m import *`
    if isinstance(elt, ast.Starred) and isinstance(elt.value, ast.Attribute) and elt.value.attr == "__all__":
        return f"{ast.unparse(elt.value.value)}.*"
    return ast.literal_eval(elt)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unused == RE_EXPORTS.get(path.name, set())


def test_the_check_sees_an_unused_import():
    assert unused_imports(ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")) == {"math", "path"}
    assert unused_imports(ast.parse("from os import sep\n__all__ = ['sep']\n")) == set()
    assert unused_imports(ast.parse("from .m import *\n__all__ = ['v', *m.__all__]\n")) == set()
    assert unused_imports(ast.parse("from .m import *\nfrom .n import *\n__all__ = [*n.__all__]\n")) == {"m.*"}


def test_the_package_exports_exactly_what_its_modules_export():
    # the package binds each module's exports on first use (PEP 562); fails on a module export the package misses
    # or binds to another object, a helper it binds too, or a name exported by two modules, where binding both
    # would silently shadow one
    modules = [importlib.import_module(f"threshold_lab.{module}") for module in LIBRARY_MODULES]
    exported = [name for module in modules for name in module.__all__]
    assert len(exported) == len(set(exported))
    assert threshold_lab.__all__ == ["__version__", *exported]
    for module in modules:
        for name in module.__all__:
            assert getattr(threshold_lab, name) is getattr(module, name), (module.__name__, name)
    star = {}
    exec("from threshold_lab import *", star)
    assert set(star) - {"__builtins__"} == set(threshold_lab.__all__)
    assert set(dir(threshold_lab)) >= set(threshold_lab.__all__)
    public = {name for name, value in vars(threshold_lab).items()
              if name[0] != "_" and not isinstance(value, types.ModuleType)}
    assert public == set(exported)


def test_sweep_report_takes_two_private_kernel_names():
    # the kernel owns selection and the crossing scan; run_sweep calls _select_walk once per n, because
    # perfbench/test_perfbench.py asserts sweep_report._select_walk is binomial_kernel._select_walk
    tree = ast.parse((PACKAGE / "sweep_report.py").read_text(encoding="utf-8"))
    private = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "binomial_kernel"
               for alias in node.names if alias.name.startswith("_")}
    assert private == {"_march", "_select_walk"}


def private_definitions(tree: ast.Module) -> set[str]:
    """The module-level functions, classes and assigned names that start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def references(tree: ast.Module) -> set[str]:
    """Names the module reads, as a name, an attribute or an import: a definition or assignment is not a read."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names})


def test_no_unused_private_name():
    # a helper the package no longer calls, such as a flag helper left behind when a table replaced it
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    defined = set().union(*map(private_definitions, trees))
    assert defined - set().union(*map(references, trees)) == set()


def test_the_check_sees_an_unused_private_name():
    tree = ast.parse("import os\n_A = 1\n_B, _C = 2, _A\ndef _f(): pass\nclass _K: pass\ndef g(): return _K, os._x\n")
    assert private_definitions(tree) == {"_A", "_B", "_C", "_f", "_K"}
    assert private_definitions(tree) - references(tree) == {"_B", "_C", "_f"}


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # dataclasses pulled in inspect, ast, dis and tokenize on every CLI call; compared with the modules loaded
    # before the import, since site may load inspect itself
    script = ("import json, sys; before = set(sys.modules); import threshold_lab.cli; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    added = {name.split(".")[0] for name in json.loads(result.stdout)} - {"threshold_lab"}
    assert not {"dataclasses", "inspect"} & added
    assert added <= sys.stdlib_module_names


def test_a_posterior_call_loads_no_statistics_decimal_or_fractions():
    # posterior selects no s, so it takes no normal quantile: the kernel binds gaussian_numerics' quantile on its
    # first call; statistics, with decimal and fractions, was about a third of a posterior call's library imports
    script = ("import json, sys; from threshold_lab.cli import parse_and_dispatch\n"
              "code = parse_and_dispatch(['posterior', '--n', '100', '--s', '60'])\n"
              "print(json.dumps(sorted(sys.modules)), file=sys.stderr); sys.exit(code)")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    loaded = set(json.loads(result.stderr))
    assert json.loads(result.stdout)["posterior_h0"] > 0.5
    assert "threshold_lab.binomial_kernel" in loaded
    assert not {"statistics", "decimal", "fractions", "threshold_lab.gaussian_numerics"} & loaded


def test_after_its_first_call_the_walk_calls_the_quantile_itself():
    # the kernel's first _inv_cdf call binds gaussian_numerics' own, so that later walks pay no wrapper
    from threshold_lab import binomial_kernel, gaussian_numerics

    binomial_kernel.select_barely_significant(1000, 0.05)  # below n = 400 the walk is exact and takes no quantile
    assert binomial_kernel._inv_cdf is gaussian_numerics._inv_cdf
