"""Rebuilding diagrams from row counts and placing free column collections.

Two builders turn a sequence of row counts into the unique passing diagram:
one greedy over dotted columns, one driven by the numbering condition.  The
free-column half answers a different question: given only the columns of a
diagram as ordered sets of row indices, where must each column go?
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable

from .core import Cell, CodeLike, Diagram, _as_counts, _checked, _FieldsJson, _rothe_difference, _shown
from .rules import NumberingRequiredError, RuleReport, _step_outs

__all__ = [
    "FreeColumns",
    "Placement",
    "build_from_row_counts",
    "build_stepout_avoiding",
    "check_free_numbering",
    "find_free_step_outs",
    "place_free_columns",
]


@dataclass(frozen=True)
class FreeColumns:
    """An ordered collection of columns, each a set of occupied row indices.

    The columns have lost their positions but kept their left-to-right
    order; rows are 1-based and every column is nonempty.
    """

    columns: tuple[frozenset[int], ...] = ()

    def __post_init__(self) -> None:
        columns = tuple(frozenset(col) for col in self.columns)
        object.__setattr__(self, "columns", columns)
        for index, col in enumerate(columns, 1):
            if not col:
                raise ValueError(f"column {index} is empty")
            for row in col:
                if type(row) is not int or row < 1:
                    raise ValueError(f"column {index} has invalid row {row!r}")

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> FreeColumns:
        return cls(sets)

    def __len__(self) -> int:
        return len(self.columns)

    def to_json_obj(self) -> dict:
        return {"columns": [sorted(col) for col in self.columns]}

    @classmethod
    def from_json_obj(cls, obj: object) -> FreeColumns:
        if not isinstance(obj, dict) or set(obj) != {"columns"}:
            raise ValueError('expected an object with a single "columns" key')
        columns = obj["columns"]
        if not isinstance(columns, list) or not all(
            isinstance(col, list) for col in columns
        ):
            raise ValueError('"columns" must be a list of row lists')
        # Each column is hashed once; only a failing collection meets the constructor's checks.
        sets = []
        for index, col in enumerate(columns, 1):
            if invalid := [row for row in col if type(row) is not int]:
                raise ValueError(f"column {index} has invalid row {invalid[0]!r}")
            sets.append(frozenset(col))
            if len(sets[-1]) != len(col):
                raise ValueError(f"column {index} repeats a row")
        bounded = all(col and min(col) >= 1 for col in sets)
        return _checked(cls, columns=tuple(sets)) if bounded else cls(sets)


@dataclass(frozen=True)
class Placement(_FieldsJson):
    """Column positions produced by a successful placement, left to right."""

    positions: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        positions = tuple(self.positions)
        object.__setattr__(self, "positions", positions)
        if any(type(p) is not int or p < 1 for p in positions):
            raise ValueError(f"positions must be positive integers: {_shown(positions)}")
        if any(b <= a for a, b in pairwise(positions)):
            raise ValueError(f"positions must strictly increase: {_shown(positions)}")


def build_from_row_counts(counts: CodeLike) -> Diagram:
    """Build the diagram with the given row counts, greedily, dot by dot.

    Working bottom to top, row ``i`` puts its bubbles in the first
    ``counts[i]`` columns not yet taken by a dot, then drops its own dot in
    the next free column.

    >>> sorted(build_from_row_counts([1, 1]).cells)
    [(1, 1), (2, 1)]
    """
    values = _as_counts(counts)
    dotted: set[int] = set()
    cells: list[Cell] = []  # row-major
    for row, wanted in enumerate(values, 1):
        col = 1
        placed = 0
        while placed < wanted:
            if col not in dotted:
                cells.append((row, col))
                placed += 1
            col += 1
        while col in dotted:
            col += 1
        dotted.add(col)
    return _checked(Diagram, cells=frozenset(cells), sorted_cells=tuple(cells))


def build_stepout_avoiding(counts: CodeLike) -> Diagram:
    """Build the diagram with the given row counts, driven by bubble labels.

    The k-th bubble of row ``i`` must carry label ``i + k - 1`` both ways,
    so it goes in the leftmost column ``c`` past its row predecessor where
    ``c`` plus the bubbles already stacked in column ``c`` hits that label.
    Produces the same diagram as :func:`build_from_row_counts`.

    >>> sorted(build_stepout_avoiding([1, 1]).cells)
    [(1, 1), (2, 1)]
    """
    values = _as_counts(counts)
    height: dict[int, int] = {}
    cells: list[Cell] = []  # row-major
    for row, wanted in enumerate(values, 1):
        prev = 0
        for k in range(1, wanted + 1):
            target = row + k - 1
            col = None
            for c in range(prev + 1, target + 1):
                if c + height.get(c, 0) == target:
                    col = c
                    break
            if col is None:
                raise RuntimeError(
                    f"no column yields label {target} for bubble {k} of row {row}"
                )
            cells.append((row, col))
            height[col] = height.get(col, 0) + 1
            prev = col
    return _checked(Diagram, cells=frozenset(cells), sorted_cells=tuple(cells))


def _free_labels(collection: FreeColumns) -> dict[Cell, int]:
    """Label each bubble, row-major: the k-th column holding row r gets r + k - 1.

    Bubbles are keyed (row, column index) in collection coordinates.
    """
    labels: dict[Cell, int] = {}
    seen: dict[int, int] = {}
    for index, col in enumerate(collection.columns, 1):
        for row in col:
            labels[(row, index)] = row + seen.get(row, 0)
            seen[row] = seen.get(row, 0) + 1
    return labels


def _free_numbering(collection: FreeColumns, labels: dict[Cell, int]) -> RuleReport:
    witnesses = []
    for index, col in enumerate(collection.columns, 1):
        rows = sorted(col)
        for a, b in pairwise(rows):
            if labels[(b, index)] != labels[(a, index)] + 1:
                witnesses.append(((a, index), (b, index)))
    for index, (col, nxt) in enumerate(pairwise(collection.columns), 1):
        low, nxt_low = min(col), min(nxt)
        if labels[(nxt_low, index + 1)] <= labels[(low, index)]:
            witnesses.append(((low, index), (nxt_low, index + 1)))
    return RuleReport("free_numbering", tuple(sorted(witnesses)))


def check_free_numbering(collection: FreeColumns) -> RuleReport:
    """Can each column's labels double as a bottom-to-top count from its start?

    Within every column the labels must climb by exactly one per bubble,
    and the runs must start strictly later from one column to the next;
    witnesses are the offending bubble pairs in (row, column index) form.
    """
    return _free_numbering(collection, _free_labels(collection))


def find_free_step_outs(collection: FreeColumns) -> RuleReport:
    """Find label pairs (n, n+1) stepping strictly up-and-right across columns.

    Like the single-diagram scan, but in collection coordinates; requires
    :func:`check_free_numbering` to hold first.
    """
    labels = _free_labels(collection)
    if not _free_numbering(collection, labels).holds:
        raise NumberingRequiredError(
            "free step-out scan requires the free numbering condition"
        )
    return RuleReport("free_step_out", _step_outs(labels))


def place_free_columns(collection: FreeColumns) -> tuple[Placement, Diagram] | None:
    """Assign each free column its forced position, or report impossibility.

    Succeeds exactly when the collection passes the free numbering check
    and has no free step-outs; each column then lands at the label of its
    lowest bubble, and the assembled diagram is always a Rothe diagram.

    >>> placement, diagram = place_free_columns(FreeColumns.from_sets([[1, 2]]))
    >>> placement.positions, sorted(diagram.cells)
    ((1,), [(1, 1), (2, 1)])
    """
    labels = _free_labels(collection)
    if not _free_numbering(collection, labels).holds or _step_outs(labels):
        return None
    positions = tuple(
        labels[(min(col), index)] for index, col in enumerate(collection.columns, 1)
    )
    cells = frozenset(
        (row, pos) for pos, col in zip(positions, collection.columns) for row in col
    )
    diagram = _checked(Diagram, cells=cells)
    if _rothe_difference(diagram):
        raise RuntimeError(f"placed diagram is not recoverable: {sorted(cells)}")
    return Placement(positions), diagram
