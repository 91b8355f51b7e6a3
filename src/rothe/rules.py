"""Characterization rules for diagrams, each an independent checker.

Every checker returns a :class:`RuleReport` whose witnesses make the
violation concrete: a mismatched dot, a (bubble, dot) pair, an offending
cell pair, a cell with conflicting labels, or a gap box with the wrong
number of final bubbles.  A report holds exactly when it has no witnesses.

:data:`RULES` maps each rule name to its checker; :func:`classify` and the
``check --rules`` command both read it.  The greedy dots live in
:mod:`rothe.core` as pieces, runs of rows that take consecutive columns,
which also reads permutations off them.

The checkers read the facts a :class:`~rothe.core.Diagram` caches, so one
:func:`classify` computes each fact once; no rule reads another's verdict,
and the numbering rule and the step-out scan's precondition read the same
cached numbering mismatch.  Beyond those facts, ``southwest``,
``numbering`` and ``empty_cell_gap`` cost O(cells log cells) plus their
witnesses, ``dot`` O(pieces) plus its witnesses, the popping rules
O(cells log cells + pieces), and ``is_rothe`` O(pieces log pieces + cells)
plus its witnesses; none depends on how large a coordinate is.  A failing
far-out diagram can still have O(largest coordinate) dot witnesses.
Horizontal popping is vertical popping of the transpose, mirrored back.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterator

from .core import (
    Cell,
    Diagram,
    _FieldsJson,
    _json_value,
    _rothe_difference,
)

__all__ = [
    "DotSet",
    "GapBox",
    "Labeling",
    "NumberingRequiredError",
    "RULES",
    "RuleReport",
    "check_dot_rule",
    "check_empty_cell_gap",
    "check_horizontal_popping",
    "check_numbering",
    "check_rothe",
    "check_southwest",
    "check_vertical_popping",
    "classify",
    "column_dots",
    "condition_verdicts",
    "final_bubbles",
    "find_step_outs",
    "gap_boxes",
    "horizontal_numbering",
    "row_dots",
    "vertical_numbering",
]

Labeling = dict[Cell, int]


class NumberingRequiredError(ValueError):
    """A step-out scan was requested for input whose numbering condition fails."""


@dataclass(frozen=True)
class DotSet:
    """Greedy dot placement of a diagram up to a finite horizon.

    ``dots[k]`` is the dot whose row (for row dots) or column (for column
    dots) is ``k + 1``; the other coordinate is pairwise distinct.
    """

    dots: tuple[Cell, ...]
    horizon: int

    def __post_init__(self) -> None:
        dots = tuple(self.dots)
        object.__setattr__(self, "dots", dots)
        if self.horizon < 1 or len(dots) != self.horizon:
            raise ValueError(f"expected {self.horizon} dots, got {len(dots)}")
        rows = [r for r, _ in dots]
        cols = [c for _, c in dots]
        enumerated = list(range(1, self.horizon + 1))
        if rows == enumerated:
            other = cols
        elif cols == enumerated:
            other = rows
        else:
            raise ValueError("dots must enumerate rows 1..horizon or columns 1..horizon")
        if len(set(other)) != len(other):
            raise ValueError(f"dot coordinates collide: {dots}")

    def cells(self) -> frozenset[Cell]:
        return frozenset(self.dots)


@dataclass(frozen=True)
class GapBox(_FieldsJson):
    """The rectangle below an empty-cell gap, with its final-bubble count.

    ``anchor`` is the bubble closing the gap; the box spans columns
    ``col_lo..col_hi`` (``col_lo`` may be 0, the basement column) over the
    rows strictly below the anchor.
    """

    anchor: Cell
    col_lo: int
    col_hi: int
    row_max: int
    gap_len: int
    finals_found: int

    def __post_init__(self) -> None:
        if self.gap_len < 1:
            raise ValueError("a gap spans at least one empty cell")
        if self.col_hi - self.col_lo + 1 != self.gap_len + 1:
            raise ValueError("column span must cover the gap and its left bubble")
        if self.finals_found < 0:
            raise ValueError("final count cannot be negative")


@dataclass(frozen=True)
class RuleReport:
    """Verdict of one rule on one input, with witnesses for each violation."""

    rule: str
    witnesses: tuple = ()

    @property
    def holds(self) -> bool:
        return not self.witnesses

    def to_json_obj(self) -> dict:
        return {
            "rule": self.rule,
            "holds": self.holds,
            "witnesses": _json_value(self.witnesses),
        }


def row_dots(diagram: Diagram) -> DotSet:
    """Dot each row, bottom to top, just right of its bubbles.

    >>> row_dots(Diagram.from_cells([(1, 1), (2, 2)])).dots[:3]
    ((1, 2), (2, 3), (3, 1))
    """
    columns = diagram.dot_columns
    return DotSet(tuple(enumerate(columns, 1)), len(columns))


def column_dots(diagram: Diagram) -> DotSet:
    """Dot each column, left to right, just above its bubbles.

    >>> column_dots(Diagram.from_cells([(1, 1), (2, 2)])).dots[:3]
    ((2, 1), (3, 2), (1, 3))
    """
    rows = diagram.transpose().dot_columns
    return DotSet(tuple((row, col) for col, row in enumerate(rows, 1)), len(rows))


def check_dot_rule(diagram: Diagram) -> RuleReport:
    """Row dots and column dots must agree as sets.

    Both put one dot in each row, so they differ exactly in the rows where
    the row dot and the column dot sit in different columns, and each such
    row gives both dots as witnesses.  Two overlapping pieces with the same
    offset agree on every row they share, so only the others are expanded.
    """
    by_row = diagram.dot_pieces
    by_column = diagram.transpose().inverse_dot_pieces
    witnesses: list[Cell] = []
    i = j = 0
    row = 1
    while i < len(by_row):
        row_lo, row_hi, col_lo = by_row[i]
        other_lo, other_hi, other_col = by_column[j]
        end = min(row_hi, other_hi)
        shift, other_shift = col_lo - row_lo, other_col - other_lo
        if shift != other_shift:
            shifts = (shift, other_shift) if shift < other_shift else (other_shift, shift)
            witnesses += [(r, r + d) for r in range(row, end + 1) for d in shifts]
        row = end + 1
        i += row_hi == end
        j += other_hi == end
    return RuleReport("dot", tuple(witnesses))


def check_vertical_popping(diagram: Diagram) -> RuleReport:
    """No bubble may sit strictly above a row dot in its column.

    The occupied columns, ascending, are matched with the pieces read by
    column in one pass, which gives the row of each one's dot.
    """
    pieces = iter(diagram.inverse_dot_pieces)
    col_lo, col_hi, row_lo = next(pieces)
    dot_row = {}
    for c in sorted({c for _, c in diagram.cells}):
        while col_hi < c:
            col_lo, col_hi, row_lo = next(pieces)
        dot_row[c] = row_lo + c - col_lo
    witnesses = [((r, c), (dot_row[c], c)) for r, c in diagram.sorted_cells if dot_row[c] < r]
    return RuleReport("vertical_popping", tuple(witnesses))


def check_horizontal_popping(diagram: Diagram) -> RuleReport:
    """No bubble may sit strictly right of a column dot in its row."""
    mirrored = check_vertical_popping(diagram.transpose()).witnesses
    witnesses = sorted(((r, c), (dr, dc)) for (c, r), (dc, dr) in mirrored)
    return RuleReport("horizontal_popping", tuple(witnesses))


def check_southwest(diagram: Diagram) -> RuleReport:
    """Any two cells must have their coordinatewise minimum in the diagram.

    Only a cell ``a`` and a cell ``b`` in a higher row and a lower column
    can fail, at the corner ``(a_row, b_col)``: each row must hold every
    column seen above it and left of its last bubble.  Rows are walked top
    down; a failing row's witnesses come from its missing columns.
    """
    above: list[int] = []
    above_set: set[int] = set()
    witnesses = []
    for row, cols in reversed(diagram.row_index.items()):
        left_of_last = bisect_left(above, cols[-1])
        if left_of_last > sum(1 for c in cols[:-1] if c in above_set):
            present = set(cols)
            for col in above[:left_of_last]:
                if col in present:
                    continue
                rows = diagram.column_rows(col)
                higher = rows[bisect_right(rows, row) :]
                for a_col in cols[bisect_right(cols, col) :]:
                    witnesses += [((row, a_col), (b_row, col)) for b_row in higher]
        for col in cols:
            if col not in above_set:
                above_set.add(col)
                insort(above, col)
    return RuleReport("southwest", tuple(sorted(witnesses)))


def horizontal_numbering(diagram: Diagram) -> Labeling:
    """Label the bubbles of row ``i`` left to right as i, i+1, i+2, ...

    >>> horizontal_numbering(Diagram.from_cells([(2, 4), (2, 1)]))
    {(2, 1): 2, (2, 4): 3}
    """
    return dict(diagram.horizontal_labels)


def vertical_numbering(diagram: Diagram) -> Labeling:
    """Label the bubbles of column ``j`` bottom to top as j, j+1, j+2, ..."""
    transposed = diagram.transpose().horizontal_labels
    return {(r, c): label for (c, r), label in transposed.items()}


def check_numbering(diagram: Diagram) -> RuleReport:
    """The horizontal and vertical numberings must be the same labeling."""
    return RuleReport("numbering", diagram.numbering_mismatch)


def _step_outs(labels: Labeling) -> tuple[tuple[Cell, Cell], ...]:
    """Cell pairs labelled (n, n+1) whose second cell lies strictly north-east."""
    by_label: dict[int, list[Cell]] = {}
    for cell, label in labels.items():
        by_label.setdefault(label, []).append(cell)
    return tuple(
        sorted(
            (a, b)
            for label, cells in by_label.items()
            for a in cells
            for b in by_label.get(label + 1, ())
            if b[0] > a[0] and b[1] > a[1]
        )
    )


def find_step_outs(diagram: Diagram) -> RuleReport:
    """Find label pairs (n, n+1) whose second bubble lies strictly north-east.

    Only defined when the numbering condition holds; otherwise the labels
    are ambiguous and a :class:`NumberingRequiredError` is raised.
    """
    if diagram.numbering_mismatch:
        raise NumberingRequiredError(
            "step-out scan requires the horizontal and vertical numberings to agree"
        )
    return RuleReport("step_out", _step_outs(diagram.horizontal_labels))


def final_bubbles(diagram: Diagram) -> frozenset[Cell]:
    """The rightmost bubble of each row up to the top occupied row.

    Every row implicitly holds a basement bubble in column 0, so a row
    with no real bubbles contributes ``(row, 0)``.

    >>> sorted(final_bubbles(Diagram.from_cells([(2, 1), (2, 3)])))
    [(1, 0), (2, 3)]
    """
    index, top = diagram.row_index, diagram.max_row
    return frozenset((r, index[r][-1] if r in index else 0) for r in range(1, top + 1))


def _gaps(diagram: Diagram) -> Iterator[tuple[Cell, int, int, int, int, int]]:
    """The :class:`GapBox` fields of each gap, rows bottom up, left to right."""
    finals_below: list[int] = []
    for occupied_below, (row, cols) in enumerate(diagram.row_index.items()):
        basement_below = row - 1 - occupied_below
        for left, right in pairwise((0,) + cols):
            length = right - left - 1
            if length < 1:
                continue
            found = bisect_right(finals_below, right - 1) - bisect_left(finals_below, left)
            found += basement_below if left == 0 else 0
            yield (row, right), left, left + length, row - 1, length, found
        insort(finals_below, cols[-1])


def gap_boxes(diagram: Diagram) -> tuple[GapBox, ...]:
    """One box per empty-cell gap, with its final-bubble count filled in.

    A gap is a maximal run of ``n >= 1`` empty cells strictly between two
    bubbles of one row; the basement bubble in column 0 counts as a left
    bubble, and cells right of a row's last bubble are never a gap.  The
    box spans the gap's columns together with the left bubble's column,
    over all rows strictly below.
    """
    return tuple(GapBox(*gap) for gap in _gaps(diagram))


def check_empty_cell_gap(diagram: Diagram) -> RuleReport:
    """Each gap of length ``n`` must have exactly ``n`` finals in its box."""
    witnesses = tuple(
        GapBox(anchor, lo, hi, row_max, length, found)
        for anchor, lo, hi, row_max, length, found in _gaps(diagram)
        if found != length
    )
    return RuleReport("empty_cell_gap", witnesses)


def check_rothe(diagram: Diagram) -> RuleReport:
    """Is the diagram the Rothe diagram of some permutation?

    The row-dot columns determine the only candidate word; the witnesses
    are the cells by which the candidate's diagram differs.
    """
    return RuleReport("is_rothe", tuple(_rothe_difference(diagram)))


RULES = {
    "southwest": check_southwest,
    "dot": check_dot_rule,
    "vertical_popping": check_vertical_popping,
    "horizontal_popping": check_horizontal_popping,
    "numbering": check_numbering,
    "step_out": find_step_outs,
    "empty_cell_gap": check_empty_cell_gap,
    "is_rothe": check_rothe,
}


def classify(diagram: Diagram) -> list[RuleReport]:
    """Run every checker in :data:`RULES` on the diagram, in order.

    The step-out report is omitted when the numbering condition fails,
    since its labels would be ambiguous; every other rule always reports.
    """
    reports: dict[str, RuleReport] = {}
    for rule, checker in RULES.items():
        if rule != "step_out" or reports["numbering"].holds:
            reports[rule] = checker(diagram)
    return list(reports.values())


def condition_verdicts(diagram: Diagram) -> dict[str, bool]:
    """The five equivalent characterizations, evaluated independently.

    All five verdicts agree on every diagram; the verification module
    checks exactly that, exhaustively.
    """
    by_rule = {report.rule: report.holds for report in classify(diagram)}
    return {
        "rothe": by_rule["is_rothe"],
        "popping_gap": by_rule["vertical_popping"] and by_rule["empty_cell_gap"],
        "numbering_dot": by_rule["numbering"] and by_rule["dot"],
        "dot_southwest": by_rule["dot"] and by_rule["southwest"],
        "numbering_stepout": by_rule["numbering"] and by_rule.get("step_out", False),
    }
