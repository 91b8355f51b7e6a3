"""The ``check`` path's loader, serialiser and popping rules against their direct forms.

``Diagram.from_json_obj`` checks each value once and builds through the
checked constructor; it must give what the validating constructor gives,
the same diagram or the same error text, on hypothesis documents and on
hand-picked bad values, and ``FreeColumns.from_json_obj`` must keep its
error texts and their order.  ``RuleReport.to_json_obj`` lists witnesses by
shape and must write what the recursive ``_json_value`` wrote.  Both
popping rules work per occupied column and must equal the per-cell scans
in ``reference.py``.  Popping and the serialiser are compared on every 3x4
diagram, on the Rothe diagrams of S_1..S_7, and on random cell sets with
coordinates near 10^9.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference
from rothe import (
    Diagram,
    FreeColumns,
    check_empty_cell_gap,
    check_free_numbering,
    check_horizontal_popping,
    check_numbering,
    check_southwest,
    check_vertical_popping,
    classify,
    enumerate_grid_diagrams,
    enumerate_permutations,
    find_free_step_outs,
    rothe_diagram,
)
from rothe.core import _json_value

from test_cli import json_documents

FAR = 10**9
# Rules whose witness lists stay short at any coordinate; ``dot`` and
# ``is_rothe`` can list O(largest coordinate) witnesses far out.
SHORT_WITNESS_CHECKS = (
    check_southwest,
    check_vertical_popping,
    check_horizontal_popping,
    check_numbering,
    check_empty_cell_gap,
)


def random_cell_sets(count: int) -> list[frozenset]:
    """Small cell sets, some with coordinates near 10^9, from a fixed seed."""
    rng = random.Random("check-path")
    sets = []
    for _ in range(count):
        far = [FAR + d for d in range(-4, 5)] if rng.random() < 0.5 else []
        pool = list(range(1, 9)) + far
        size = rng.randint(0, 12)
        sets.append(frozenset((rng.choice(pool), rng.choice(pool)) for _ in range(size)))
    return sets


def small_diagrams() -> list[Diagram]:
    """Every 3x4 diagram and the Rothe diagrams of S_1..S_7."""
    diagrams = list(enumerate_grid_diagrams(3, 4))
    for n in range(1, 8):
        diagrams += [rothe_diagram(w) for w in enumerate_permutations(n)]
    return diagrams


def assert_popping_matches(diagram: Diagram) -> None:
    fresh = Diagram(diagram.cells)  # the reference reads its own cached facts
    assert check_vertical_popping(diagram).witnesses == reference.per_cell_vertical_popping(fresh)
    horizontal = reference.per_cell_horizontal_popping(fresh)
    assert check_horizontal_popping(diagram).witnesses == horizontal


def assert_serialised_as_before(report) -> None:
    recursive = {"rule": report.rule, "holds": report.holds}
    recursive["witnesses"] = _json_value(report.witnesses)
    assert json.dumps(report.to_json_obj()) == json.dumps(recursive)


def test_popping_and_serialiser_on_small_diagrams():
    diagrams = small_diagrams()
    assert len(diagrams) == 4096 + sum((1, 2, 6, 24, 120, 720, 5040))
    for diagram in diagrams:
        assert_popping_matches(diagram)
        for report in classify(diagram):
            assert_serialised_as_before(report)


def test_popping_and_serialiser_on_random_far_out_cells():
    cell_sets = random_cell_sets(3000)
    assert sum(1 for cells in cell_sets if max(map(max, cells), default=0) >= FAR - 4) > 500
    for cells in cell_sets:
        diagram = Diagram(cells)
        assert_popping_matches(diagram)
        for check in SHORT_WITNESS_CHECKS:
            assert_serialised_as_before(check(diagram))
        if max(map(max, cells), default=0) < FAR - 4:
            for report in classify(diagram):
                assert_serialised_as_before(report)


def test_serialiser_on_free_reports():
    collections = [FreeColumns.from_sets(sets) for sets in ([[1, 2], [2, 4, 5], [2], [5]], [])]
    for cells in random_cell_sets(400):
        if cells:
            by_col: dict[int, set[int]] = {}
            for r, c in cells:
                by_col.setdefault(c, set()).add(r)
            collections.append(FreeColumns.from_sets(by_col[c] for c in sorted(by_col)))
    reports = [check_free_numbering(collection) for collection in collections]
    assert any(report.witnesses for report in reports)
    for collection, report in zip(collections, reports):
        assert_serialised_as_before(report)
        if report.holds:
            assert_serialised_as_before(find_free_step_outs(collection))


def outcome(build):
    """What ``build`` gives: a diagram or collection, or the text of its ValueError."""
    try:
        return build()
    except ValueError as error:
        return str(error)


def well_formed(raw) -> bool:
    """Every entry a [row, col] pair of exact ints, with no two alike."""
    pairs = all(
        type(entry) is list and len(entry) == 2 and type(entry[0]) is type(entry[1]) is int
        for entry in raw
    )
    return pairs and len({tuple(entry) for entry in raw}) == len(raw)


def assert_loads_as_constructor(raw) -> None:
    loaded = outcome(lambda: Diagram.from_json_obj({"cells": raw}))
    if not well_formed(raw):
        assert loaded == "duplicate cells in diagram JSON" or "is not a [row, col] pair" in loaded
        return
    expected = outcome(lambda: Diagram(frozenset(map(tuple, raw))))
    assert loaded == expected
    if isinstance(loaded, Diagram):
        assert loaded.sorted_cells == expected.sorted_cells
        assert dict(loaded.row_index) == dict(expected.row_index)


coordinates = st.integers(-2, 12) | st.integers(-(10**20), 10**20)
cell_entries = st.lists(coordinates, min_size=2, max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.lists(cell_entries, max_size=8) | st.lists(cell_entries | json_documents, max_size=6))
def test_loader_matches_constructor(raw):
    assert_loads_as_constructor(raw)


@pytest.mark.parametrize(
    "raw, text",
    [
        ([], None),
        ([[0, 1]], "cell (0, 1) has coordinates below 1"),
        ([[1, -1]], "cell (1, -1) has coordinates below 1"),
        ([[2, 2], [-5, 3]], "cell (-5, 3) has coordinates below 1"),
        ([[0, 1], [1.5, 2]], "cell entry [1.5, 2] is not a [row, col] pair"),
        ([[0, 1], [0, 1]], "duplicate cells in diagram JSON"),
        ([[0, 1], [True, 2]], "cell entry [True, 2] is not a [row, col] pair"),
        ([[-1, 2], [3, 1], [2, 2]], "cell (-1, 2) has coordinates below 1"),
    ],
)
def test_loader_bad_values(raw, text):
    assert_loads_as_constructor(raw)
    loaded = outcome(lambda: Diagram.from_json_obj({"cells": raw}))
    assert loaded == (Diagram() if text is None else text)


@pytest.mark.parametrize(
    "columns, text",
    [
        ([[1, 2], [2, 4, 5]], None),
        ([[1, 2], []], "column 2 is empty"),
        ([[1], [0, 3]], "column 2 has invalid row 0"),
        ([[0], [1.5]], "column 2 has invalid row 1.5"),
        ([[], [1, 1]], "column 2 repeats a row"),
        ([[-1], []], "column 1 has invalid row -1"),
    ],
)
def test_free_columns_loader(columns, text):
    loaded = outcome(lambda: FreeColumns.from_json_obj({"columns": columns}))
    expected = FreeColumns([frozenset(col) for col in columns]) if text is None else text
    assert loaded == expected
