"""The greedy dots as pieces, against the dot window they replace.

``Diagram.dot_pieces`` lists the row dots as runs ``(row_lo, row_hi,
col_lo)``.  Expanded, the pieces must equal the direct greedy scan in
``reference.py`` for a diagram and for its transpose, and every rule that
reads them must report what the window-based forms in ``reference.py``
report: the dot rule, both popping rules, ``is_rothe`` and
``recover_permutation``.  They are compared on every 3x3 diagram, on every
Rothe diagram of the 4x4 box and each of its one-cell toggles, and on
sparse cells at coordinates up to 10^4.  Budget tests hold the rules to
a few milliseconds at coordinates up to 10^9.
"""

from __future__ import annotations

import time

from hypothesis import given, settings, strategies as st

import reference
from rothe import (
    Diagram,
    check_dot_rule,
    check_empty_cell_gap,
    check_horizontal_popping,
    check_numbering,
    check_rothe,
    check_southwest,
    check_vertical_popping,
    classify,
    enumerate_grid_diagrams,
    recover_permutation,
)
from test_sweep_kernel import rothe_masks


def expand(pieces) -> tuple[int, ...]:
    return tuple(c for lo, hi, col in pieces for c in range(col, col + hi - lo + 1))


def assert_pieces_well_formed(diagram: Diagram) -> None:
    pieces = diagram.dot_pieces
    horizon = 2 * diagram.max_coordinate + 2
    assert pieces[0][0] == 1 and pieces[-1][1] == horizon
    assert all(hi + 1 == lo for (_, hi, _), (lo, _, _) in zip(pieces, pieces[1:]))
    last_lo, _, last_col = pieces[-1]
    assert last_lo == last_col  # the identity
    assert len(pieces) <= 4 * len(diagram) + 1


def assert_matches_window(cells) -> None:
    diagram = Diagram(frozenset(cells))
    transposed = reference.transpose(cells)
    for used, used_cells in ((diagram, cells), (diagram.transpose(), transposed)):
        assert_pieces_well_formed(used)
        expanded = expand(used.dot_pieces)
        assert list(expanded) == reference.window_dot_columns(used_cells)
        if diagram.max_coordinate < 100:
            assert expanded == reference.dot_columns(used_cells)
    assert check_dot_rule(diagram).witnesses == reference.window_dot_witnesses(cells)
    assert check_vertical_popping(diagram).witnesses == (
        reference.window_vertical_popping_witnesses(cells)
    )
    mirrored = reference.window_vertical_popping_witnesses(transposed)
    horizontal = check_horizontal_popping(diagram).witnesses
    assert horizontal == tuple(sorted(((r, c), (dr, dc)) for (c, r), (dc, dr) in mirrored))
    if diagram.max_coordinate < 100:
        assert horizontal == reference.horizontal_popping_witnesses(cells)
    word, difference = reference.window_rothe_reading(cells)
    assert check_rothe(diagram).witnesses == difference
    assert recover_permutation(Diagram(frozenset(cells))) == (None if difference else word)


def test_every_3x3_diagram():
    diagrams = list(enumerate_grid_diagrams(3, 3))
    assert len(diagrams) == 512
    for diagram in diagrams:
        assert_matches_window(diagram.cells)


def test_rothe_diagrams_of_4x4_and_their_one_cell_toggles():
    box = [(r, c) for r in range(1, 5) for c in range(1, 5)]
    bases = [frozenset(cell for k, cell in enumerate(box) if m >> k & 1) for m in rothe_masks(4, 4)]
    assert len(bases) == 209
    for cells in bases:
        assert recover_permutation(Diagram(cells)) is not None
        assert_matches_window(cells)
        for cell in box:
            assert_matches_window(cells ^ {cell})


far_coordinate = st.one_of(st.integers(1, 12), st.integers(1, 10_000))
sparse_cells = st.frozensets(st.tuples(far_coordinate, far_coordinate), max_size=8)


@settings(max_examples=150, deadline=None)
@given(sparse_cells)
def test_sparse_far_out_cells(cells):
    assert_matches_window(cells)


def best_ms(run) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        run()
        times.append((time.perf_counter() - t0) * 1000)
    return min(times)


def test_classify_budget_far_diagonal_cell():
    """A passing diagram at 10^6 costs its pieces, not a window of 2,000,002 rows."""
    cells = frozenset({(10**6, 10**6)})
    assert all(report.holds for report in classify(Diagram(cells)))
    elapsed_ms = best_ms(lambda: classify(Diagram(cells)))
    assert elapsed_ms < 5, f"classify took {elapsed_ms:.2f} ms"


def test_pieces_budget_far_apart_cells():
    """Pieces and the rules with short witness lists stay fast at 10^9.

    The diagram fails the dot rule on about 2 * 10^9 rows and ``is_rothe``
    on about 10^8 cells, so those two rules are not run here.
    """
    cells = frozenset({(10**9, 1), (5, 10**8)})
    checks = (check_southwest, check_vertical_popping, check_horizontal_popping)
    checks += (check_numbering, check_empty_cell_gap)

    def run() -> Diagram:
        diagram = Diagram(cells)
        for check in checks:
            check(diagram)
        return diagram

    elapsed_ms = best_ms(run)
    diagram = run()
    assert elapsed_ms < 5, f"pieces and five rules took {elapsed_ms:.2f} ms"
    for used in (diagram, diagram.transpose()):
        assert_pieces_well_formed(used)
    assert diagram.dot_pieces == (
        (1, 4, 1),
        (5, 5, 10**8 + 1),
        (6, 10**8 + 1, 5),
        (10**8 + 2, 10**9 - 1, 10**8 + 2),
        (10**9, 10**9, 10**9),
        (10**9 + 1, 2 * 10**9 + 2, 10**9 + 1),
    )
    assert check_vertical_popping(diagram).witnesses == (((10**9, 1), (1, 1)),)
