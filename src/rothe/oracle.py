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
took 22 s, so all of 5x5 should take about 12 minutes.  All three sweeps
run through one driver, :func:`_run`, which loads the process pool only when
``jobs`` (``rothe verify --jobs``) asks for more than one worker.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass
from itertools import chain, permutations as _lex_words
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
GRID_SPANS = 64


def _run(chunk: Callable[..., tuple], spans: list[tuple], jobs: int) -> tuple:
    """Merge ``chunk(*span)`` over the spans, on a process pool above one clamped job.

    Pieces are (counts, found, total, examined); found entries are capped once.
    """
    jobs = min(jobs, os.cpu_count() or 1, len(spans))
    if jobs <= 1:
        pieces = [chunk(*span) for span in spans]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            pieces = list(pool.map(chunk, *zip(*spans)))
    counts, found, totals, examined = zip(*pieces)
    summed = {key: sum(piece[key] for piece in counts) for key in counts[0]}
    joined = [entry for entries in found for entry in entries]
    return summed, joined[:COUNTEREXAMPLE_CAP], sum(totals), sum(examined)


def _first_letters(n: int) -> range:
    """The letters 1..n, once n is within the size cap."""
    if not 1 <= n <= MAX_SIZE:
        raise ValueError(f"size must be between 1 and {MAX_SIZE}, got {n}")
    return range(1, n + 1)


def _permutations_from(n: int, first: int) -> Iterator[Permutation]:
    """The permutations of {1..n} whose word starts with ``first``, in lexicographic order."""
    for rest in _lex_words([v for v in range(1, n + 1) if v != first]):
        yield Permutation.from_word((first, *rest))


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of {1..n} in lexicographic word order, canonicalized.

    >>> [str(w) for w in enumerate_permutations(2)]
    ['1', '21']
    """
    return chain.from_iterable(_permutations_from(n, first) for first in _first_letters(n))


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
    """Scan grid masks lo..hi-1; only a counterexample's mask becomes a :class:`Diagram`."""
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
                diagram = _mask_diagram(_grid_positions(rows, cols), mask)
                counterexamples.append({**diagram.to_json_obj(), "verdicts": verdicts})
    return counts, counterexamples, total, hi - lo


def verify_characterizations(rows: int, cols: int, jobs: int = 1) -> EquivalenceReport:
    """Check that all five conditions agree on every diagram in the grid.

    Counterexamples are the first ``COUNTEREXAMPLE_CAP`` in mask order, by cells.
    """
    started = time.perf_counter()
    size = 1 << len(_grid_positions(rows, cols))
    step = -(-size // GRID_SPANS)
    spans = [(rows, cols, lo, min(lo + step, size)) for lo in range(0, size, step)]
    counts, found, total, examined = _run(_characterization_chunk, spans, jobs)
    return EquivalenceReport(
        bounds=f"{rows}x{cols} grid",
        examined=examined,
        counts=counts,
        counterexamples=tuple(sorted(found, key=lambda ce: ce["cells"])),
        counterexample_total=total,
        elapsed_ms=(time.perf_counter() - started) * 1000,
    )


@dataclass(frozen=True)
class SweepReport(_FieldsJson):
    """Outcome of a per-permutation sweep; failures are capped like counterexamples."""

    bounds: str
    checked: int
    failures: tuple[dict, ...]
    failure_total: int
    elapsed_ms: float


def _permutation_chunk(failures_of: Callable, n: int, first: int) -> tuple:
    """Collect what ``failures_of`` finds on the permutations of {1..n} starting with ``first``."""
    found: list[dict] = []
    total = checked = 0
    for checked, w in enumerate(_permutations_from(n, first), 1):
        failures = failures_of(w)
        total += len(failures)
        found += failures[: COUNTEREXAMPLE_CAP - len(found)]
    return {}, found, total, checked


def _sweep(n: int, failures_of: Callable[[Permutation], list[dict]], jobs: int) -> SweepReport:
    """Run ``failures_of`` on each permutation of {1..n}, one span per first letter, timed."""
    started = time.perf_counter()
    spans = [(failures_of, n, first) for first in _first_letters(n)]
    _, failures, total, checked = _run(_permutation_chunk, spans, jobs)
    return SweepReport(
        bounds=f"n={n}",
        checked=checked,
        failures=tuple(failures),
        failure_total=total,
        elapsed_ms=(time.perf_counter() - started) * 1000,
    )


def _lehmer_failures(w: Permutation) -> list[dict]:
    """The stage at which ``w`` fails to round-trip through its row counts, if any."""
    code = lehmer_code(w)
    if permutation_from_lehmer(code) != w:
        return [{"permutation": str(w), "stage": "round_trip"}]
    if build_from_row_counts(code) != rothe_diagram(w):
        return [{"permutation": str(w), "stage": "build"}]
    return []


def _property_failures(w: Permutation) -> list[dict]:
    """The rules that fail on the diagram of ``w``."""
    failed = [report.rule for report in classify(rothe_diagram(w)) if not report.holds]
    return [{"permutation": str(w), "rule": rule} for rule in failed]


def verify_lehmer_bijection(n: int, jobs: int = 1) -> SweepReport:
    """Round-trip each permutation of {1..n} through its row counts and the builder."""
    return _sweep(n, _lehmer_failures, jobs)


def verify_rothe_properties(n: int, jobs: int = 1) -> SweepReport:
    """Every rule must hold on the diagram of every permutation of {1..n}."""
    return _sweep(n, _property_failures, jobs)
