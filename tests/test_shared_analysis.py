"""The shared per-diagram analysis against the reference algorithms.

Southwest witnesses, gap boxes, labelings, the numbering mismatch, dots and
the transpose must equal what the direct algorithms in ``reference.py``, or
a freshly validated mirror diagram, compute from the bare cell set, on
every 3x3 diagram, on random cell sets, and on Rothe diagrams with one cell
removed or added.  Diagrams that in-package builders make without
re-validating their cells must equal freshly validated ones, facts and all.
A budget test pins the cost of ``classify`` on a large diagram.
"""

from __future__ import annotations

import copy
import gc
import pickle
import random
import time
import weakref

from hypothesis import given, settings, strategies as st

import reference
from rothe import (
    Diagram,
    FreeColumns,
    Permutation,
    build_from_row_counts,
    build_stepout_avoiding,
    check_southwest,
    classify,
    column_dots,
    enumerate_grid_diagrams,
    enumerate_permutations,
    gap_boxes,
    horizontal_numbering,
    lehmer_code,
    place_free_columns,
    rothe_diagram,
    row_dots,
    vertical_numbering,
)

cell_sets = st.frozensets(
    st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40)),
    max_size=30,
)


def assert_matches_reference(cells) -> None:
    diagram = Diagram(frozenset(cells))
    classify(diagram)  # fills every cached fact of this object first
    assert check_southwest(diagram).witnesses == reference.southwest_witnesses(cells)
    assert gap_boxes(diagram) == reference.gap_boxes(cells)
    fresh = Diagram(frozenset(cells))
    mirror = Diagram(frozenset((c, r) for r, c in cells))
    for used in (diagram, fresh):
        transposed = used.transpose()
        assert transposed.cells == mirror.cells
        assert transposed.sorted_cells == mirror.sorted_cells
        assert list(transposed.row_index.items()) == list(mirror.row_index.items())
        assert transposed.max_coordinate == mirror.max_coordinate
        horizontal = reference.horizontal_labels(cells)
        vertical = reference.vertical_labels(cells)
        disagree = tuple(sorted(cell for cell in cells if horizontal[cell] != vertical[cell]))
        assert used.numbering_mismatch == disagree
        assert horizontal_numbering(used) == reference.horizontal_labels(cells)
        assert vertical_numbering(used) == reference.vertical_labels(cells)
        assert row_dots(used).dots == tuple(enumerate(reference.dot_columns(cells), 1))
        assert column_dots(used).dots == tuple(
            (r, c) for c, r in enumerate(reference.dot_columns(reference.transpose(cells)), 1)
        )


def one_cell_variants(cells):
    """The cell set with each cell removed, and with each bounding-box hole filled."""
    top = max(r for r, _ in cells)
    right = max(c for _, c in cells)
    for cell in sorted(cells):
        yield cells - {cell}
    for r in range(1, top + 1):
        for c in range(1, right + 1):
            if (r, c) not in cells:
                yield cells | {(r, c)}


def test_every_3x3_diagram():
    for diagram in enumerate_grid_diagrams(3, 3):
        assert_matches_reference(diagram.cells)


@settings(max_examples=300, deadline=None)
@given(cell_sets)
def test_random_cell_sets(cells):
    assert_matches_reference(cells)


def test_rothe_diagrams_with_one_cell_removed_or_added():
    rng = random.Random("shared-analysis")
    for n in (4, 6, 9, 12):
        word = list(range(1, n + 1))
        rng.shuffle(word)
        cells = rothe_diagram(Permutation.from_word(word)).cells
        assert_matches_reference(cells)
        for variant in one_cell_variants(cells):
            assert_matches_reference(variant)


def assert_facts_as_validated(diagram: Diagram) -> None:
    fresh = Diagram(frozenset(diagram.cells))
    assert type(diagram.cells) is frozenset
    assert diagram == fresh and hash(diagram) == hash(fresh)
    assert diagram.sorted_cells == fresh.sorted_cells
    assert list(diagram.row_index.items()) == list(fresh.row_index.items())
    assert diagram.max_coordinate == fresh.max_coordinate
    assert classify(diagram) == classify(fresh)


def test_checked_builds_match_validated_diagrams():
    """Rothe diagrams of S_1..S_6, both builders, placed columns and grid masks."""
    for n in range(1, 7):
        for w in enumerate_permutations(n):
            diagram = rothe_diagram(w)
            assert_facts_as_validated(diagram)
            code = lehmer_code(w)
            assert_facts_as_validated(build_from_row_counts(code))
            assert_facts_as_validated(build_stepout_avoiding(code))
            _, placed = place_free_columns(FreeColumns(diagram.transpose().row_index.values()))
            assert_facts_as_validated(placed)
    for diagram in enumerate_grid_diagrams(3, 3):
        assert_facts_as_validated(diagram)


def test_returned_labelings_are_copies():
    diagram = Diagram.from_cells([(1, 1), (2, 3)])
    horizontal_numbering(diagram).clear()
    vertical_numbering(diagram).clear()
    assert horizontal_numbering(diagram) == {(1, 1): 1, (2, 3): 2}
    assert vertical_numbering(diagram) == {(1, 1): 1, (2, 3): 3}


def test_classified_diagram_pickles_and_copies():
    diagram = Diagram.from_cells([(1, 2), (2, 1), (3, 3)])
    reports = classify(diagram)
    for clone in (pickle.loads(pickle.dumps(diagram)), copy.deepcopy(diagram)):
        assert clone == diagram
        assert classify(clone) == reports


def test_classified_diagram_is_freed_without_the_cyclic_collector():
    """The transpose holds no reference back, so a classified diagram is no cycle."""
    diagram = Diagram.from_cells([(1, 2), (2, 1), (3, 3), (1, 1)])
    classify(diagram)
    assert diagram.transpose().transpose() == diagram
    ref = weakref.ref(diagram)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del diagram
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_classify_budget_s60():
    """``classify`` on a 1,052-cell diagram of S_60 takes under 60 ms."""
    word = list(range(1, 61))
    random.Random(60).shuffle(word)
    cells = rothe_diagram(Permutation.from_word(word)).cells
    assert len(cells) == 1052
    classify(Diagram(cells))  # warm-up on another object, so its memo is not reused
    diagram = Diagram(cells)
    t0 = time.perf_counter()
    reports = classify(diagram)
    elapsed_ms = (time.perf_counter() - t0) * 1000
    assert all(report.holds for report in reports)
    assert elapsed_ms < 60, f"classify took {elapsed_ms:.1f} ms"
