"""Module structure of the package: imports at module level, no cycles."""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import rothe

PACKAGE_DIR = Path(rothe.__file__).resolve().parent
MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE_DIR.glob("*.py")
}


def _package_imports(tree: ast.Module) -> set[str]:
    """Names of the sibling modules a module imports, relatively or absolutely."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("rothe."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("rothe.")
            )
    return found & set(MODULES)


def test_no_import_inside_a_function():
    misplaced = [
        f"{name}.{func.name}:{node.lineno}"
        for name, tree in MODULES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert misplaced == []


def test_package_import_graph_is_acyclic():
    graph = {name: _package_imports(tree) for name, tree in MODULES.items()}
    assert "core" in graph["rules"]
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert order.index("core") < order.index("rules") < order.index("cli")
