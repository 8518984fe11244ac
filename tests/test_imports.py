"""Every module-level import in the package is used, or re-exported through __all__."""

import ast
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
    # fails on a module export the package misses, a helper a star import leaks, or a name exported
    # by two modules, where one star import would silently shadow the other
    exported = [name for module in LIBRARY_MODULES for name in getattr(threshold_lab, module).__all__]
    public = {name for name, value in vars(threshold_lab).items()
              if name[0] != "_" and not isinstance(value, types.ModuleType)}
    assert len(exported) == len(set(exported))
    assert public == set(exported) == set(threshold_lab.__all__) - {"__version__"}


def test_sweep_report_takes_two_private_kernel_names():
    # the kernel owns selection and the crossing scan; sweep cells call _select_walk directly, because
    # perfbench/test_perfbench.py asserts sweep_report._select_walk is binomial_kernel._select_walk
    tree = ast.parse((PACKAGE / "sweep_report.py").read_text(encoding="utf-8"))
    private = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "binomial_kernel"
               for alias in node.names if alias.name.startswith("_")}
    assert private == {"_march", "_select_walk"}
