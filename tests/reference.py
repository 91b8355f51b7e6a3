"""Reference algorithms, kept only for differential tests.

These are the direct forms of what ``rothe`` computes from a diagram's
shared, cached facts or with output-sensitive scans: the all-pairs
southwest scan, the gap boxes counted by scanning every final bubble, the
labelings and greedy dots built straight from the cell set, horizontal
popping read directly off the column dots, and the inversions of a word
found by comparing every pair of positions.  Each reads nothing but ``cells`` or the word, so a
fault in a ``Diagram``'s cached members or in an output-sensitive scan
cannot hide here.

The ``window_*`` functions are the rules that read the greedy dots, as
they were computed before the dots became pieces: one dot per row up to a
horizon of twice the largest coordinate plus two, with the guard that the
window's dots fill columns 1..horizon.
"""

from __future__ import annotations

from itertools import pairwise

from rothe import GapBox, Permutation, rothe_diagram

Cell = tuple[int, int]


class StabilizationError(RuntimeError):
    """The greedy dots of a window did not fill columns 1..horizon."""


def row_columns(cells, row: int) -> tuple[int, ...]:
    return tuple(sorted(c for r, c in cells if r == row))


def transpose(cells) -> frozenset[Cell]:
    return frozenset((c, r) for r, c in cells)


def southwest_witnesses(cells) -> tuple[tuple[Cell, Cell], ...]:
    """Every pair of cells whose coordinatewise minimum is a third, missing cell."""
    ordered = sorted(cells)
    witnesses = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            corner = (min(a[0], b[0]), min(a[1], b[1]))
            if corner != a and corner != b and corner not in cells:
                witnesses.append((a, b))
    return tuple(witnesses)


def gap_boxes(cells) -> tuple[GapBox, ...]:
    """The gap boxes, each counting the finals below it by a full scan."""
    top = max((r for r, _ in cells), default=0)
    finals = set()
    for row in range(1, top + 1):
        cols = row_columns(cells, row)
        finals.add((row, cols[-1] if cols else 0))
    boxes = []
    for row in sorted({r for r, _ in cells}):
        for left, right in pairwise((0,) + row_columns(cells, row)):
            length = right - left - 1
            if length < 1:
                continue
            found = sum(
                1 for fr, fc in finals if fr <= row - 1 and left <= fc <= left + length
            )
            boxes.append(GapBox((row, right), left, left + length, row - 1, length, found))
    return tuple(boxes)


def horizontal_labels(cells) -> dict[Cell, int]:
    """Row ``i`` labelled i, i+1, ... from left to right."""
    return {
        (row, col): row + offset
        for row in {r for r, _ in cells}
        for offset, col in enumerate(row_columns(cells, row))
    }


def vertical_labels(cells) -> dict[Cell, int]:
    """Column ``j`` labelled j, j+1, ... from bottom to top."""
    return {(r, c): label for (c, r), label in horizontal_labels(transpose(cells)).items()}


def dot_columns(cells) -> tuple[int, ...]:
    """Greedy row dots up to the horizon, each taking the smallest allowed column."""
    horizon = 2 * max((max(cell) for cell in cells), default=0) + 2
    used: set[int] = set()
    columns = []
    for row in range(1, horizon + 1):
        col = max((c + 1 for r, c in cells if r == row), default=1)
        while col in used:
            col += 1
        used.add(col)
        columns.append(col)
    return tuple(columns)


def greedy_dot_columns(cells, horizon: int) -> list[int]:
    """Column of the dot in each row 1..horizon, scanning bottom up.

    Each dot takes the smallest column strictly right of every bubble in
    its row and not used by a lower dot.  A pointer to the smallest unused
    column, which only moves up, makes each empty row O(1).  The window is
    complete when its dots fill columns 1..horizon, so that every later dot
    lies on the diagonal; that is checked once at the end.
    """
    last = {}
    for r, c in cells:
        last[r] = max(last.get(r, 0), c)
    used: set[int] = set()
    lowest = 1
    columns: list[int] = []
    for row in range(1, horizon + 1):
        col = max(last[row] + 1, lowest) if row in last else lowest
        while col in used:
            col += 1
        used.add(col)
        columns.append(col)
        while lowest in used:
            lowest += 1
    if lowest != horizon + 1:
        raise StabilizationError(f"dots of rows 1..{horizon} leave column {lowest} unused")
    return columns


def window_dot_columns(cells) -> list[int]:
    return greedy_dot_columns(cells, 2 * max((max(cell) for cell in cells), default=0) + 2)


def window_dot_witnesses(cells) -> tuple[Cell, ...]:
    """Row dots and column dots of the window, compared as sets."""
    by_row = set(enumerate(window_dot_columns(cells), 1))
    by_column = {(r, c) for c, r in enumerate(window_dot_columns(transpose(cells)), 1)}
    return tuple(sorted(by_row ^ by_column))


def window_vertical_popping_witnesses(cells) -> tuple[tuple[Cell, Cell], ...]:
    """Each bubble strictly above the row dot in its column, with that dot."""
    dot_row_of_col = {c: r for r, c in enumerate(window_dot_columns(cells), 1)}
    return tuple(
        sorted(
            ((r, c), (dot_row_of_col[c], c))
            for r, c in cells
            if c in dot_row_of_col and dot_row_of_col[c] < r
        )
    )


def window_rothe_reading(cells) -> tuple[Permutation, tuple[Cell, ...]]:
    """The word read off the window's row dots, and the cells where its diagram differs."""
    candidate = Permutation.from_word(window_dot_columns(cells))
    return candidate, tuple(sorted(frozenset(cells) ^ rothe_diagram(candidate).cells))


def horizontal_popping_witnesses(cells) -> tuple[tuple[Cell, Cell], ...]:
    """Each bubble strictly right of the column dot in its row, with that dot."""
    dot_col_of_row = {r: c for c, r in enumerate(dot_columns(transpose(cells)), 1)}
    return tuple(
        sorted(
            ((r, c), (r, dot_col_of_row[r]))
            for r, c in cells
            if r in dot_col_of_row and dot_col_of_row[r] < c
        )
    )


def inversion_cells(word) -> frozenset[Cell]:
    """The cell (i, w_j) of every position pair i < j with w_i > w_j."""
    n = len(word)
    return frozenset(
        (i + 1, word[j]) for i in range(n) for j in range(i + 1, n) if word[i] > word[j]
    )


def inversion_counts(word) -> tuple[int, ...]:
    """For each position, the later positions holding a smaller value."""
    n = len(word)
    return tuple(sum(1 for j in range(i + 1, n) if word[i] > word[j]) for i in range(n))
