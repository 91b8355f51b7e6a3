"""Permutations, diagrams, and the Lehmer bijection.

Conventions used throughout the package:

* A permutation acts on the positive integers and fixes all but finitely
  many of them.  It is stored in one-line notation as a tuple ``word``
  with ``word[i-1] = w_i``; positions beyond the word are fixed points.
  The canonical form is the shortest such word: empty for the identity,
  otherwise ending in an unfixed position.

* A cell is a pair ``(row, col)``, both 1-based.  Rows grow upward
  (French convention) and columns grow to the right, so the cell ``(i, w)``
  sits in row ``i`` at horizontal position ``w``.

* The Rothe diagram of ``w`` is ``{(i, w_j) : i < j, w_i > w_j}``, one
  cell (a "bubble") per inversion.

* A Lehmer code is a finite sequence of nonnegative integers; entry
  ``a_i`` counts the inversions starting at position ``i`` and equals the
  number of bubbles in row ``i`` of the diagram.

Dots are defined on the infinite grid.  Runs of empty rows take
consecutive unused columns, so the greedy row dots form a short list of
pieces ``(row_lo, row_hi, col_lo)``: rows row_lo..row_hi take columns
col_lo, col_lo + 1, ....  Each occupied row adds at most three pieces, and
the last piece is the identity, for row and column dots alike; it is cut
at a horizon of twice the diagram's largest coordinate plus two, so that
expanding every piece gives the finite window the rules once scanned.

A :class:`Diagram` computes the facts the rules share once, on first use,
as cached members that live and die with the frozen object: sorted cells
and row index, O(cells log cells); transpose, horizontal labels and the
numbering mismatch, O(cells); the dot pieces and their inverse, O(cells
log cells), whatever the coordinates.  Column facts are the row facts of
the transpose.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields, is_dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "Cell",
    "Diagram",
    "LehmerCode",
    "ParseError",
    "Permutation",
    "lehmer_code",
    "parse_permutation",
    "permutation_from_lehmer",
    "recover_permutation",
    "rothe_diagram",
    "rothe_via_death_rays",
    "row_counts",
]

Cell = tuple[int, int]
Piece = tuple[int, int, int]


class _cached_fact:
    """A member computed on first use and kept in the instance dict.

    This is ``functools.cached_property`` without the lock that Python 3.11
    takes on every first access, about 1 µs, which one ``classify`` of a
    small diagram pays a dozen times.
    """

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.compute.__name__] = self.compute(obj)
        return value


class ParseError(ValueError):
    """Raised when permutation text cannot be parsed."""


def _is_int(value: object) -> bool:
    """An integer that is not a bool, so JSON ``true`` is never read as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_value(value: object) -> object:
    """JSON form of a value: dataclasses as field dicts, tuples as lists."""
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name)) for f in fields(value)}
    return value


class _FieldsJson:
    """Mixin for dataclasses whose JSON form is every field, tuples as lists."""

    def to_json_obj(self) -> dict:
        return _json_value(self)


@dataclass(frozen=True)
class Permutation:
    """A permutation of the positive integers with finitely many unfixed points.

    The constructor insists on canonical form; use :meth:`from_word` to
    build one from an arbitrary word with a fixed tail.

    >>> Permutation((2, 3, 1)).value(2)
    3
    >>> Permutation.from_word([2, 1, 3, 4]).word
    (2, 1)
    >>> str(Permutation())
    '1'
    """

    word: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"word {word} is not a permutation of 1..{n}")
        if word and word[-1] == n:
            raise ValueError(f"word {word} is not canonical: last position is fixed")

    @classmethod
    def from_word(cls, values: Iterable[int]) -> "Permutation":
        """Build a permutation from one-line notation, trimming the fixed tail."""
        word = tuple(values)
        end = next((i for i in range(len(word), 0, -1) if word[i - 1] != i), 0)
        return cls(word[:end])

    @property
    def size(self) -> int:
        """Length of the canonical word (0 for the identity)."""
        return len(self.word)

    def value(self, i: int) -> int:
        """The image of position ``i``, using the identity beyond the word."""
        if i < 1:
            raise ValueError(f"position must be positive, got {i}")
        return self.word[i - 1] if i <= len(self.word) else i

    def __str__(self) -> str:
        if not self.word:
            return "1"
        if all(v <= 9 for v in self.word):
            return "".join(str(v) for v in self.word)
        return " ".join(str(v) for v in self.word)


@dataclass(frozen=True)
class Diagram:
    """A finite set of bubble cells, rows and columns both 1-based.

    >>> d = Diagram.from_cells([(2, 1), (1, 1)])
    >>> d.sorted_cells
    ((1, 1), (2, 1))
    >>> d.max_row, d.max_col
    (2, 1)
    >>> Diagram.from_cells([(1, 1), (2, 2)]).dot_pieces
    ((1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 6, 4))
    """

    cells: frozenset[Cell] = frozenset()

    def __post_init__(self) -> None:
        cells = frozenset(self.cells)
        for cell in cells:
            if not (
                isinstance(cell, tuple)
                and len(cell) == 2
                and isinstance(cell[0], int)
                and isinstance(cell[1], int)
            ):
                raise ValueError(f"cell {cell!r} is not an integer pair")
            if cell[0] < 1 or cell[1] < 1:
                raise ValueError(f"cell {cell} has coordinates below 1")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_cells(cls, cells: Iterable[Sequence[int]]) -> "Diagram":
        return cls(frozenset((int(r), int(c)) for r, c in cells))

    def __reduce__(self):
        return (Diagram, (self.cells,))  # pickles and copies drop the cached facts

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    @_cached_fact
    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))

    @_cached_fact
    def row_index(self) -> Mapping[int, tuple[int, ...]]:
        """Columns of each occupied row, ascending; rows in ascending order."""
        index: dict[int, list[int]] = {}
        for r, c in self.sorted_cells:
            index.setdefault(r, []).append(c)
        return MappingProxyType({r: tuple(cols) for r, cols in index.items()})

    @_cached_fact
    def _transposed(self) -> "Diagram":
        return Diagram(frozenset((c, r) for r, c in self.cells))

    @_cached_fact
    def dot_pieces(self) -> tuple[Piece, ...]:
        """Greedy row dots as pieces ``(row_lo, row_hi, col_lo)`` (see the module notes).

        Each dot takes the smallest column right of its row's bubbles that
        no lower dot uses, so a run of empty rows fills the lowest unused
        columns, one piece per run of them.
        """
        horizon = 2 * self.max_coordinate + 2
        pieces: list[Piece] = []
        starts: list[int] = []  # unused columns below top: runs starts[k]..ends[k]
        ends: list[int] = []
        top = 0
        row = 1
        for next_row, cols in [*self.row_index.items(), (horizon + 1, ())]:
            while row < next_row:
                count = next_row - row
                if not starts:
                    col = top + 1
                    top += count
                elif ends[0] - starts[0] < count:
                    col = starts.pop(0)
                    count = ends.pop(0) - col + 1
                else:
                    col = starts[0]
                    starts[0] += count
                pieces.append((row, row + count - 1, col))
                row += count
            if cols:
                lowest = cols[-1] + 1
                i = bisect_left(ends, lowest)
                if i < len(ends):
                    col = starts[i] if starts[i] > lowest else lowest
                    _take_columns(starts, ends, i, col, col)
                else:
                    col = top + 1 if top >= lowest else lowest
                    if col > top + 1:
                        starts.append(top + 1)
                        ends.append(col - 1)
                    top = col
                pieces.append((row, row, col))
                row += 1
        return tuple(pieces)

    @_cached_fact
    def inverse_dot_pieces(self) -> tuple[Piece, ...]:
        """The dot pieces read by column: ``(col_lo, col_hi, row_lo)``, ascending."""
        return tuple(sorted([(col, col + hi - lo, lo) for lo, hi, col in self.dot_pieces]))

    @property
    def dot_columns(self) -> tuple[int, ...]:
        """Column of the greedy dot in each row 1..horizon, expanded from the pieces."""
        return tuple(c for lo, hi, col in self.dot_pieces for c in range(col, col + hi - lo + 1))

    @_cached_fact
    def horizontal_labels(self) -> Mapping[Cell, int]:
        """The bubbles of row ``i`` labelled i, i+1, i+2, ... left to right."""
        rows = self.row_index.items()
        return MappingProxyType({(r, c): r + k for r, cols in rows for k, c in enumerate(cols)})

    @_cached_fact
    def numbering_mismatch(self) -> tuple[Cell, ...]:
        """Bubbles whose horizontal and vertical labels differ, sorted."""
        vertical = self._transposed.horizontal_labels
        labels = self.horizontal_labels.items()
        return tuple((r, c) for (r, c), label in labels if vertical[c, r] != label)

    @property
    def max_row(self) -> int:
        return next(reversed(self.row_index), 0)

    @property
    def max_col(self) -> int:
        return max((cols[-1] for cols in self.row_index.values()), default=0)

    @property
    def max_coordinate(self) -> int:
        return max(self.max_row, self.max_col)

    def row_columns(self, row: int) -> tuple[int, ...]:
        """Columns of the bubbles in ``row``, ascending."""
        return self.row_index.get(row, ())

    def column_rows(self, col: int) -> tuple[int, ...]:
        """Rows of the bubbles in ``col``, ascending."""
        return self._transposed.row_index.get(col, ())

    def transpose(self) -> "Diagram":
        return self._transposed

    def to_json_obj(self) -> dict:
        return {"cells": [[r, c] for r, c in self.sorted_cells]}

    @classmethod
    def from_json_obj(cls, obj: object) -> "Diagram":
        if not isinstance(obj, dict) or "cells" not in obj:
            raise ValueError('diagram JSON must be an object with a "cells" key')
        raw = obj["cells"]
        if not isinstance(raw, list):
            raise ValueError('"cells" must be a list of [row, col] pairs')
        cells = []
        for entry in raw:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_int(v) for v in entry)
            ):
                raise ValueError(f"cell entry {entry!r} is not a [row, col] pair")
            cells.append((entry[0], entry[1]))
        if len(set(cells)) != len(cells):
            raise ValueError("duplicate cells in diagram JSON")
        return cls.from_cells(cells)


@dataclass(frozen=True)
class LehmerCode(_FieldsJson):
    """A finite sequence of nonnegative integers, trailing zeros trimmed.

    >>> LehmerCode.from_counts([1, 2, 0, 0]).counts
    (1, 2)
    """

    counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        if any(not isinstance(a, int) or a < 0 for a in counts):
            raise ValueError(f"counts {counts} must be nonnegative integers")
        if counts and counts[-1] == 0:
            raise ValueError(f"counts {counts} are not canonical: trailing zero")

    @classmethod
    def from_counts(cls, values: Iterable[int]) -> "LehmerCode":
        counts = tuple(values)
        end = next((i for i in range(len(counts), 0, -1) if counts[i - 1]), 0)
        return cls(counts[:end])

    @classmethod
    def from_json_obj(cls, obj: object) -> "LehmerCode":
        if not isinstance(obj, dict) or "counts" not in obj:
            raise ValueError('code JSON must be an object with a "counts" key')
        raw = obj["counts"]
        if not isinstance(raw, list) or not all(_is_int(v) for v in raw):
            raise ValueError('"counts" must be a list of integers')
        return cls.from_counts(raw)


CodeLike = Union[LehmerCode, Sequence[int]]


def _as_counts(code: CodeLike) -> tuple[int, ...]:
    if isinstance(code, LehmerCode):
        return code.counts
    counts = tuple(int(a) for a in code)
    if any(a < 0 for a in counts):
        raise ValueError(f"counts {counts} must be nonnegative")
    return counts


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation into a canonical permutation.

    Accepts whitespace- or comma-separated values, or a compact digit
    string when every value is a single digit.

    >>> parse_permutation("152869347").word
    (1, 5, 2, 8, 6, 9, 3, 4, 7)
    >>> parse_permutation("2, 1").word
    (2, 1)
    >>> parse_permutation("1 2 3").word
    ()
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty input: expected at least one value")
    if len(tokens) == 1 and len(tokens[0]) > 1 and tokens[0].isascii() and tokens[0].isdigit():
        values = []
        for pos, ch in enumerate(tokens[0], 1):
            if ch == "0":
                raise ParseError(f"value 0 at position {pos} is out of range")
            values.append(int(ch))
    else:
        values = []
        for pos, tok in enumerate(tokens, 1):
            if not (tok.isascii() and tok.isdigit()):
                raise ParseError(f"non-numeric token {tok!r} at position {pos}")
            value = int(tok)
            if value < 1:
                raise ParseError(f"value {value} at position {pos} is out of range")
            values.append(value)
    first_seen: dict[int, int] = {}
    for pos, value in enumerate(values, 1):
        if value in first_seen:
            raise ParseError(
                f"duplicate value {value} at positions {first_seen[value]} and {pos}"
            )
        first_seen[value] = pos
    n = len(values)
    for pos, value in enumerate(values, 1):
        if value > n:
            raise ParseError(
                f"value {value} at position {pos} is out of range 1..{n}"
            )
    return Permutation.from_word(values)


def rothe_diagram(w: Permutation) -> Diagram:
    """The inversion cells of ``w``: {(i, w_j) : i < j, w_i > w_j}.

    Row i holds the values below w_i unused by positions 1..i.  Walking the
    word left to right, ``after[v]`` leads to the smallest unused value at or
    above v (union-find with path halving over 1..n+1), so row i visits just
    its cells before w_i is marked used: O(n α(n) + cells).

    >>> sorted(rothe_diagram(Permutation((2, 3, 1))).cells)
    [(1, 1), (2, 1)]
    """
    after = list(range(len(w.word) + 2))
    cells = []
    for i, wi in enumerate(w.word, 1):
        v = 1
        while v < wi:
            if after[v] == v:
                cells.append((i, v))
                v += 1
            else:
                after[v] = v = after[after[v]]
        after[wi] = wi + 1
    return Diagram(frozenset(cells))


def rothe_via_death_rays(w: Permutation) -> Diagram:
    """The same diagram built from ray shadows instead of inversion pairs.

    An origin sits at every (i, w_i) and casts one ray upward and one to
    the right.  The diagram consists of the cells no ray touches; such a
    cell necessarily lies strictly left of its row's origin and strictly
    below its column's origin.
    """
    word = w.word
    n = len(word)
    origin_col = {i: word[i - 1] for i in range(1, n + 1)}
    origin_row = {word[i - 1]: i for i in range(1, n + 1)}
    cells = frozenset(
        (r, c)
        for r in range(1, n + 1)
        for c in range(1, n + 1)
        if origin_col[r] > c and origin_row[c] > r
    )
    return Diagram(cells)


def lehmer_code(w: Permutation) -> LehmerCode:
    """Per-position inversion counts of ``w``.

    Entry i is w_i - 1 less the values below w_i used by positions 1..i-1.
    Walking the word left to right, a Fenwick tree over the values counts
    those in O(log n) and then marks w_i used: O(n log n).

    >>> lehmer_code(Permutation((2, 3, 1))).counts
    (1, 1)
    """
    n = len(w.word)
    tree = [0] * (n + 1)
    counts = []
    for wi in w.word:
        k, below = wi - 1, 0
        while k:
            below += tree[k]
            k &= k - 1
        counts.append(wi - 1 - below)
        while wi <= n:
            tree[wi] += 1
            wi += wi & -wi
    return LehmerCode.from_counts(counts)


def permutation_from_lehmer(code: CodeLike) -> Permutation:
    """The unique permutation whose Lehmer code is ``code``.

    Repeatedly selects the (a_i + 1)-th smallest unused value.  A ground
    set of ``len + max + 1`` values always suffices.

    >>> permutation_from_lehmer(LehmerCode((1, 1))).word
    (2, 3, 1)
    """
    counts = _as_counts(code)
    if not counts:
        return Permutation()
    available = list(range(1, len(counts) + max(counts) + 2))
    word = [available.pop(a) for a in counts]
    word.extend(available)
    return Permutation.from_word(word)


def row_counts(diagram: Diagram) -> LehmerCode:
    """Bubbles per row, from row 1 to the top occupied row.

    >>> row_counts(Diagram.from_cells([(1, 1), (2, 1)])).counts
    (1, 1)
    """
    rows = range(1, diagram.max_row + 1)
    return LehmerCode.from_counts(len(diagram.row_columns(r)) for r in rows)


def _take_columns(starts: list[int], ends: list[int], i: int, lo: int, hi: int) -> None:
    """Remove the columns lo..hi from the unused run ``starts[i]..ends[i]`` that holds them."""
    if lo > starts[i] and hi < ends[i]:
        starts.insert(i + 1, hi + 1)
        ends.insert(i, lo - 1)
    elif lo > starts[i]:
        ends[i] = lo - 1
    elif hi < ends[i]:
        starts[i] = hi + 1
    else:
        del starts[i], ends[i]


def _rothe_difference(diagram: Diagram) -> list[Cell]:
    """Cells by which the diagram differs from that of its row-dot word, sorted.

    Every row of a piece has the same cells in the word's diagram: the
    columns below its ``col_lo`` that earlier pieces left unused.  Those
    rows are compared with the row index, so the cost is O(pieces log
    pieces + cells + witnesses).
    """
    starts: list[int] = []  # unused columns below top, as in Diagram.dot_pieces
    ends: list[int] = []
    top = 0
    expected: dict[int, tuple[int, ...]] = {}
    for row_lo, row_hi, col_lo in diagram.dot_pieces:
        col_hi = col_lo + row_hi - row_lo
        if col_lo <= top:
            _take_columns(starts, ends, bisect_right(starts, col_lo) - 1, col_lo, col_hi)
        else:
            if col_lo > top + 1:
                starts.append(top + 1)
                ends.append(col_lo - 1)
            top = col_hi
        if starts and starts[0] < col_lo:
            cells: list[int] = []
            for lo, hi in zip(starts, ends):
                if lo > col_lo:
                    break
                cells += range(lo, hi + 1)
            expected.update(dict.fromkeys(range(row_lo, row_hi + 1), tuple(cells)))
    index = diagram.row_index
    difference: list[Cell] = []
    if expected != index:
        for row in sorted(index.keys() | expected.keys()):
            cols, wanted = index.get(row, ()), expected.get(row, ())
            if cols != wanted:
                difference += [(row, c) for c in sorted(set(cols).symmetric_difference(wanted))]
    return difference


def recover_permutation(diagram: Diagram) -> Optional[Permutation]:
    """The permutation whose Rothe diagram is ``diagram``, if one exists.

    The row-dot columns of a Rothe diagram spell out the one-line word,
    so the only possible preimage is the dot reading; it is checked
    against the diagram piece by piece.

    >>> recover_permutation(Diagram.from_cells([(1, 1), (2, 1)])).word
    (2, 3, 1)
    >>> recover_permutation(Diagram.from_cells([(1, 2), (2, 1)])) is None
    True
    """
    return None if _rothe_difference(diagram) else Permutation.from_word(diagram.dot_columns)
