"""Reference algorithms, kept only for differential tests.

These are the direct forms of what ``rothe.rules`` computes from a
diagram's shared, cached facts: the all-pairs southwest scan, the gap boxes
counted by scanning every final bubble, the labelings and greedy dots
built straight from the cell set, and horizontal popping read directly off
the column dots.  Each reads nothing but ``cells``, so a
fault in a ``Diagram``'s cached members cannot hide here.
"""

from __future__ import annotations

from itertools import pairwise

from rothe import GapBox

Cell = tuple[int, int]


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
