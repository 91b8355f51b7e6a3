"""Exhaustive verification at small scale.

The characterization rules are checked against each other over every
diagram in a bounded grid, and the row-count bijection over every
permutation of a bounded size.  Bounds are hard-capped to keep brute force
honest: anything bigger raises instead of silently sampling.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations as _lex_words
from typing import Iterator

from .core import (
    Cell,
    Diagram,
    Permutation,
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
    return Diagram(frozenset(pos for bit, pos in enumerate(positions) if mask >> bit & 1))


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


def _characterization_chunk(rows: int, cols: int, lo: int, hi: int) -> tuple:
    """Scan grid masks lo..hi-1; must stay importable for worker processes."""
    positions = _grid_positions(rows, cols)
    counts: dict[str, int] = {}
    counterexamples: list[dict] = []
    total = 0
    examined = 0
    for mask in range(lo, hi):
        diagram = _mask_diagram(positions, mask)
        verdicts = condition_verdicts(diagram)
        examined += 1
        for key, value in verdicts.items():
            counts[key] = counts.get(key, 0) + bool(value)
        if len(set(verdicts.values())) > 1:
            total += 1
            if len(counterexamples) < COUNTEREXAMPLE_CAP:
                counterexamples.append({**diagram.to_json_obj(), "verdicts": verdicts})
    return counts, counterexamples, total, examined


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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def verify_lehmer_bijection(n: int) -> SweepReport:
    """Round-trip every permutation of {1..n} through its row counts.

    Each permutation must survive code-and-decode unchanged, and the greedy
    builder must reproduce its diagram from the code alone.
    """
    started = time.perf_counter()
    checked = 0
    failures: list[dict] = []
    for w in enumerate_permutations(n):
        checked += 1
        code = lehmer_code(w)
        if permutation_from_lehmer(code) != w:
            failures.append({"permutation": str(w), "stage": "round_trip"})
            continue
        if build_from_row_counts(code) != rothe_diagram(w):
            failures.append({"permutation": str(w), "stage": "build"})
    elapsed = (time.perf_counter() - started) * 1000
    return SweepReport(
        bounds=f"n={n}",
        checked=checked,
        failures=tuple(failures),
        failure_total=len(failures),
        elapsed_ms=elapsed,
    )


def verify_rothe_properties(n: int) -> SweepReport:
    """Every rule must hold on the diagram of every permutation of {1..n}."""
    started = time.perf_counter()
    checked = 0
    failures: list[dict] = []
    for w in enumerate_permutations(n):
        checked += 1
        for report in classify(rothe_diagram(w)):
            if not report.holds:
                failures.append({"permutation": str(w), "rule": report.rule})
    elapsed = (time.perf_counter() - started) * 1000
    return SweepReport(
        bounds=f"n={n}",
        checked=checked,
        failures=tuple(failures),
        failure_total=len(failures),
        elapsed_ms=elapsed,
    )
