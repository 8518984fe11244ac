"""Every module-level import in the package is used, or re-exported through __all__."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "threshold_lab"
SOURCES = sorted(PACKAGE.glob("*.py"))

# Names a module imports only so that callers can import them from it.
RE_EXPORTS = {"binomial_kernel.py": {"MAX_N"}}


def unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return imported - used - exported


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unused == RE_EXPORTS.get(path.name, set())


def test_the_check_sees_an_unused_import():
    assert unused_imports(ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")) == {"math", "path"}
    assert unused_imports(ast.parse("from os import sep\n__all__ = ['sep']\n")) == set()


def test_sweep_report_takes_three_private_kernel_names():
    # the kernel owns selection and the crossing scan; sweep cells call _select_walk directly, because
    # perfbench/test_perfbench.py asserts sweep_report._select_walk is binomial_kernel._select_walk
    tree = ast.parse((PACKAGE / "sweep_report.py").read_text(encoding="utf-8"))
    private = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "binomial_kernel"
               for alias in node.names if alias.name.startswith("_")}
    assert private == {"_march", "_select_walk", "_tail_p"}
