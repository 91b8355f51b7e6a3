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


PACKAGE_SURFACE = [
    "Cell",
    "Diagram",
    "DotSet",
    "EquivalenceReport",
    "FreeColumns",
    "GapBox",
    "Labeling",
    "LehmerCode",
    "NumberingRequiredError",
    "ParseError",
    "Permutation",
    "Placement",
    "RULES",
    "RuleReport",
    "SweepReport",
    "build_from_row_counts",
    "build_stepout_avoiding",
    "check_dot_rule",
    "check_empty_cell_gap",
    "check_free_numbering",
    "check_horizontal_popping",
    "check_numbering",
    "check_rothe",
    "check_southwest",
    "check_vertical_popping",
    "classify",
    "column_dots",
    "condition_verdicts",
    "enumerate_grid_diagrams",
    "enumerate_permutations",
    "final_bubbles",
    "find_free_step_outs",
    "find_step_outs",
    "gap_boxes",
    "horizontal_numbering",
    "lehmer_code",
    "parse_permutation",
    "permutation_from_lehmer",
    "place_free_columns",
    "recover_permutation",
    "rothe_diagram",
    "rothe_via_death_rays",
    "row_counts",
    "row_dots",
    "verify_characterizations",
    "verify_lehmer_bijection",
    "verify_rothe_properties",
    "vertical_numbering",
]


def test_package_surface_is_the_union_of_the_modules():
    """``rothe.__all__`` is pinned, each name is the module's own object, and no
    two modules declare one name, which a star import would settle silently."""
    assert rothe.__all__ == PACKAGE_SURFACE
    modules = (rothe.core, rothe.rules, rothe.reconstruct, rothe.oracle)
    homes = {name: module for module in modules for name in module.__all__}
    assert len(homes) == sum(len(module.__all__) for module in modules)
    for name, module in homes.items():
        assert getattr(rothe, name) is getattr(module, name), name
