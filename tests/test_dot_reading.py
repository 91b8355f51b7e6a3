"""The rules that read the greedy dots, against their direct forms.

Horizontal popping is vertical popping of the transpose, mirrored back; it
must equal the direct scan in ``reference.py``.  The reference dot
window's guard must reject a horizon whose dots leave a column unused, and
the one dot reading must serve ``recover_permutation`` and ``is_rothe``
alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import reference
from rothe import (
    Diagram,
    check_horizontal_popping,
    check_rothe,
    classify,
    enumerate_grid_diagrams,
    recover_permutation,
    rothe_diagram,
)
from test_shared_analysis import cell_sets


def assert_popping_matches_reference(cells) -> None:
    expected = reference.horizontal_popping_witnesses(cells)
    classified = Diagram(frozenset(cells))
    classify(classified)  # fills every cached fact of this object first
    for diagram in (classified, Diagram(frozenset(cells))):
        assert check_horizontal_popping(diagram).witnesses == expected


def test_horizontal_popping_every_3x3_diagram():
    for diagram in enumerate_grid_diagrams(3, 3):
        assert_popping_matches_reference(diagram.cells)


@settings(max_examples=300, deadline=None)
@given(cell_sets)
def test_horizontal_popping_random_cell_sets(cells):
    assert_popping_matches_reference(cells)


def test_short_horizon_raises():
    diagram = Diagram.from_cells([(1, 1)])
    with pytest.raises(reference.StabilizationError):
        reference.greedy_dot_columns(diagram.cells, 1)  # the one dot lands in column 2
    assert reference.greedy_dot_columns(diagram.cells, 2) == [2, 1]


def test_recovery_fails_exactly_when_is_rothe_fails():
    passing = 0
    for diagram in enumerate_grid_diagrams(3, 3):
        recovered = recover_permutation(diagram)
        assert (recovered is None) == (not check_rothe(diagram).holds)
        if recovered is not None:
            passing += 1
            assert rothe_diagram(recovered) == diagram
    assert passing == 34
