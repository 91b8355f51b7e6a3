"""Exhaustive verification at small scale.

The characterization rules are checked against each other over every
diagram in a bounded grid, and the row-count bijection over every
permutation of a bounded size.  Bounds are hard-capped to keep brute force
honest: anything bigger raises instead of silently sampling.

The grid sweep reads each mask with a bitboard kernel that imports nothing
from :mod:`rothe.rules`, so a fault in the rules' shared facts cannot hide
in the sweep that checks them; ``tests/test_sweep_kernel.py`` pins it to
:func:`~rothe.rules.condition_verdicts`.  At about 17 µs a mask, one
process sweeps 3x4 in 0.07 s and 4x4 in 1.1 s; one 2^20-mask chunk of 5x5
took 22 s, so all of 5x5 should take about 12 minutes.  The process pool
is loaded only when ``jobs`` (``rothe verify --jobs``) asks for more than
one worker.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass
from itertools import permutations as _lex_words
from typing import Callable, Iterator

from .core import (
    Cell,
    Diagram,
    Permutation,
    _checked,
    _FieldsJson,
    lehmer_code,
    permutation_from_lehmer,
    rothe_diagram,
)
from .reconstruct import build_from_row_counts
from .rules import classify, condition_verdicts

__all__ = [
    "EquivalenceReport",
    "SweepReport",
    "enumerate_grid_diagrams",
    "enumerate_permutations",
    "verify_characterizations",
    "verify_lehmer_bijection",
    "verify_rothe_properties",
]

MAX_SIZE = 9
MAX_GRID_CELLS = 25
COUNTEREXAMPLE_CAP = 10


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of {1..n} in lexicographic word order, canonicalized.

    >>> [str(w) for w in enumerate_permutations(2)]
    ['1', '21']
    """
    if not 1 <= n <= MAX_SIZE:
        raise ValueError(f"size must be between 1 and {MAX_SIZE}, got {n}")
    for word in _lex_words(range(1, n + 1)):
        yield Permutation.from_word(word)


def _grid_positions(rows: int, cols: int) -> list[Cell]:
    """The cells of the rows-by-cols grid, one per mask bit, within the size cap."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    if rows * cols > MAX_GRID_CELLS:
        raise ValueError(
            f"{rows}x{cols} grid has {rows * cols} cells, refusing more than {MAX_GRID_CELLS}"
        )
    return [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]


def _mask_diagram(positions: list[Cell], mask: int) -> Diagram:
    """The diagram holding the positions whose bits are set in ``mask``."""
    cells = frozenset(pos for bit, pos in enumerate(positions) if mask >> bit & 1)
    return _checked(Diagram, cells=cells)


def enumerate_grid_diagrams(rows: int, cols: int) -> Iterator[Diagram]:
    """Every subset of the rows-by-cols grid as a diagram, smallest mask first.

    >>> sum(1 for _ in enumerate_grid_diagrams(2, 2))
    16
    """
    positions = _grid_positions(rows, cols)
    for mask in range(1 << len(positions)):
        yield _mask_diagram(positions, mask)


@dataclass(frozen=True)
class EquivalenceReport(_FieldsJson):
    """Outcome of checking the five equivalent conditions over a grid."""

    bounds: str
    examined: int
    counts: dict[str, int]
    counterexamples: tuple[dict, ...]
    counterexample_total: int
    elapsed_ms: float


def _mask_verdicts(rows: int, cols: int, mask: int) -> dict[str, bool]:
    """The five verdicts of :func:`condition_verdicts` on a grid mask, on bitboards.

    ``row[i]`` holds bit c for a bubble in column c of row i, ``col[j]``
    bit r for a bubble in row r of column j; bit 0 stands for the basement.
    Each rule is computed here from the masks alone, never through
    :mod:`rothe.rules`, and each condition combines only its own rules.

    >>> set(_mask_verdicts(2, 2, 0b0101).values())  # (1, 1), (2, 1): the diagram of 231
    {True}
    >>> set(_mask_verdicts(2, 2, 0b0110).values())  # (1, 2), (2, 1)
    {False}
    """
    full = (1 << cols) - 1
    row = [0] + [(mask >> (r * cols) & full) << 1 for r in range(rows)]
    col = [0] * (cols + 1)
    for r, bits in enumerate(row):
        for c in range(1, bits.bit_length()):
            col[c] |= (bits >> c & 1) << r
    top_row = -(-mask.bit_length() // cols)
    horizon = 2 * max(top_row, max(map(int.bit_length, row)) - 1) + 2
    row += [0] * (horizon + 1 - len(row))
    col += [0] * (horizon + 1 - len(col))

    # Greedy dots: each takes the lowest free bit above its line's last bubble.
    # is_rothe compares row i with the cells of the dot word w; vertical
    # popping fails when a bubble sits in a column dotted by a lower row.
    rothe = popping = True
    dot_col = [0] * (horizon + 1)
    used = 1
    for i in range(1, horizon + 1):
        bits = row[i]
        taken = used | ((1 << bits.bit_length()) - 1)
        dot = (taken + 1) & ~taken
        w = dot_col[i] = dot.bit_length() - 1
        rothe = rothe and bits == ((1 << w) - 2) & ~used
        popping = popping and not bits & used
        used |= dot
    dot_holds = True
    used = 1
    for j in range(1, horizon + 1):
        taken = used | ((1 << col[j].bit_length()) - 1)
        dot = (taken + 1) & ~taken
        dot_holds = dot_holds and dot_col[dot.bit_length() - 1] == j
        used |= dot

    # Southwest: a row holds every column seen above it and left of its last bubble.
    southwest, above = True, 0
    for r in range(top_row, 0, -1):
        if row[r] and above & ((1 << (row[r].bit_length() - 1)) - 1) & ~row[r]:
            southwest = False
            break
        above |= row[r]

    # Gaps: finals[c] counts the rows below whose last bubble is in column c.
    gap = True
    finals = [0] * (cols + 1)
    for r in range(1, top_row + 1):
        bits, left = row[r], 0
        while gap and bits:
            right = (bits & -bits).bit_length() - 1
            gap = right - left < 2 or sum(finals[left:right]) == right - left - 1
            left, bits = right, bits & (bits - 1)
        finals[(row[r] | 1).bit_length() - 1] += 1

    # Numbering: row label r + rank in row, column label c + rank in column.
    numbering = True
    by_label: dict[int, list[Cell]] = {}
    for r in range(1, top_row + 1):
        bits = row[r]
        while numbering and bits:
            c = (bits & -bits).bit_length() - 1
            label = r + (row[r] & ((1 << c) - 1)).bit_count()
            numbering = label == c + (col[c] & ((1 << r) - 1)).bit_count()
            by_label.setdefault(label, []).append((r, c))
            bits &= bits - 1
    step_out = numbering and not any(
        r2 > r1 and c2 > c1
        for label, cells in by_label.items()
        for r1, c1 in cells
        for r2, c2 in by_label.get(label + 1, ())
    )
    return {
        "rothe": rothe,
        "popping_gap": popping and gap,
        "numbering_dot": numbering and dot_holds,
        "dot_southwest": dot_holds and southwest,
        "numbering_stepout": step_out,
    }


def _characterization_chunk(rows: int, cols: int, lo: int, hi: int) -> tuple:
    """Scan grid masks lo..hi-1; must stay importable for worker processes.

    Only a mask whose verdicts disagree becomes a :class:`Diagram`, for the
    cells of its counterexample entry.
    """
    positions = _grid_positions(rows, cols)
    counts: dict[str, int] = {}
    counterexamples: list[dict] = []
    total = 0
    for mask in range(lo, hi):
        verdicts = _mask_verdicts(rows, cols, mask)
        for key, value in verdicts.items():
            counts[key] = counts.get(key, 0) + value
        if len(set(verdicts.values())) > 1:
            total += 1
            if len(counterexamples) < COUNTEREXAMPLE_CAP:
                diagram = _mask_diagram(positions, mask)
                counterexamples.append({**diagram.to_json_obj(), "verdicts": verdicts})
    return counts, counterexamples, total, hi - lo


def verify_characterizations(rows: int, cols: int, jobs: int = 1) -> EquivalenceReport:
    """Check that all five conditions agree on every diagram in the grid.

    The scan can be split over up to ``jobs`` processes, one per CPU at
    most; the merged report is identical either way.  Counterexamples are
    capped at ``COUNTEREXAMPLE_CAP`` entries but always counted in full.
    """
    size = 1 << len(_grid_positions(rows, cols))
    jobs = min(jobs, os.cpu_count() or 1, size)
    started = time.perf_counter()
    if jobs <= 1:
        pieces = [_characterization_chunk(rows, cols, 0, size)]
    else:
        step = -(-size // jobs)
        spans = [(lo, min(lo + step, size)) for lo in range(0, size, step)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            pieces = list(
                pool.map(
                    _characterization_chunk,
                    *zip(*((rows, cols, lo, hi) for lo, hi in spans)),
                )
            )
    counts: dict[str, int] = {}
    counterexamples: list[dict] = []
    total = 0
    examined = 0
    for piece_counts, piece_ces, piece_total, piece_examined in pieces:
        for key, value in piece_counts.items():
            counts[key] = counts.get(key, 0) + value
        counterexamples.extend(piece_ces)
        total += piece_total
        examined += piece_examined
    counterexamples.sort(key=lambda ce: ce["cells"])
    elapsed = (time.perf_counter() - started) * 1000
    return EquivalenceReport(
        bounds=f"{rows}x{cols} grid",
        examined=examined,
        counts=counts,
        counterexamples=tuple(counterexamples[:COUNTEREXAMPLE_CAP]),
        counterexample_total=total,
        elapsed_ms=elapsed,
    )


@dataclass(frozen=True)
class SweepReport(_FieldsJson):
    """Outcome of a per-permutation sweep."""

    bounds: str
    checked: int
    failures: tuple[dict, ...]
    failure_total: int
    elapsed_ms: float


def _sweep(n: int, failures_of: Callable[[Permutation], list[dict]]) -> SweepReport:
    """Collect the failures ``failures_of`` finds on each permutation of {1..n}, timed."""
    started = time.perf_counter()
    checked = 0
    failures: list[dict] = []
    for w in enumerate_permutations(n):
        checked += 1
        failures.extend(failures_of(w))
    elapsed = (time.perf_counter() - started) * 1000
    return SweepReport(
        bounds=f"n={n}",
        checked=checked,
        failures=tuple(failures),
        failure_total=len(failures),
        elapsed_ms=elapsed,
    )


def verify_lehmer_bijection(n: int) -> SweepReport:
    """Round-trip every permutation of {1..n} through its row counts.

    Each permutation must survive code-and-decode unchanged, and the greedy
    builder must reproduce its diagram from the code alone.
    """

    def failures_of(w: Permutation) -> list[dict]:
        code = lehmer_code(w)
        if permutation_from_lehmer(code) != w:
            return [{"permutation": str(w), "stage": "round_trip"}]
        if build_from_row_counts(code) != rothe_diagram(w):
            return [{"permutation": str(w), "stage": "build"}]
        return []

    return _sweep(n, failures_of)


def verify_rothe_properties(n: int) -> SweepReport:
    """Every rule must hold on the diagram of every permutation of {1..n}."""
    return _sweep(
        n,
        lambda w: [
            {"permutation": str(w), "rule": report.rule}
            for report in classify(rothe_diagram(w))
            if not report.holds
        ],
    )
