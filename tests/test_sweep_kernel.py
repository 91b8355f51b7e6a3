"""The grid sweep's bitboard kernel, pinned to ``condition_verdicts``.

``oracle._mask_verdicts`` evaluates the five characterizations on integer
row masks instead of a :class:`Diagram`.  It is compared here with the
library's reference path, ``condition_verdicts`` of the mask's diagram, on
whole grids, on every Rothe diagram of a 4x4 box and its one-cell
near-misses, and on hypothesis masks near Rothe diagrams of 4x4 and 5x5
boxes.  The counts of a full sweep are checked against Rothe diagrams
listed from Lehmer codes, and the counterexample path is driven by a kernel
patched to disagree on chosen masks.
"""

from __future__ import annotations

import json
import os
import time
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import reference
from rothe import condition_verdicts, oracle, rules, verify_characterizations


def _reference_verdicts(rows: int, cols: int, mask: int) -> dict[str, bool]:
    return condition_verdicts(oracle._mask_diagram(oracle._grid_positions(rows, cols), mask))


def _assert_kernel_matches(rows: int, cols: int, masks) -> None:
    for mask in masks:
        kernel = oracle._mask_verdicts(rows, cols, mask)
        expected = _reference_verdicts(rows, cols, mask)
        assert list(kernel.items()) == list(expected.items()), (rows, cols, bin(mask))


def _decode_lehmer(counts) -> tuple[int, ...]:
    """The word whose position i takes the (a_i + 1)-th smallest value not yet used."""
    unused = list(range(1, len(counts) + max(counts, default=0) + 2))
    return tuple(unused.pop(a) for a in counts) + tuple(unused)


@cache
def rothe_masks(rows: int, cols: int) -> frozenset[int]:
    """Masks of the Rothe diagrams inside the box, listed from Lehmer codes.

    A diagram inside the box has at most ``rows`` rows of at most ``cols``
    bubbles, so its code has at most ``rows`` entries, each at most ``cols``;
    of the decoded inversion sets, those whose columns fit are kept.
    """
    masks = set()
    for counts in product(range(cols + 1), repeat=rows):
        cells = reference.inversion_cells(_decode_lehmer(counts))
        if all(c <= cols for _, c in cells):
            masks.add(sum(1 << (r - 1) * cols + c - 1 for r, c in cells))
    return frozenset(masks)


@pytest.mark.parametrize("rows, cols", [(3, 3), (3, 4), (4, 3), (2, 6), (6, 2)])
def test_every_mask_of_grid(rows, cols):
    _assert_kernel_matches(rows, cols, range(1 << rows * cols))


def test_rothe_diagrams_of_4x4_and_their_one_cell_toggles():
    bases = rothe_masks(4, 4)
    assert len(bases) == 209
    _assert_kernel_matches(4, 4, sorted(bases))
    _assert_kernel_matches(4, 4, sorted({m ^ 1 << bit for m in bases for bit in range(16)}))


@st.composite
def near_rothe_masks(draw):
    rows, cols = draw(st.sampled_from([(4, 4), (5, 5)]))
    mask = draw(st.sampled_from(sorted(rothe_masks(rows, cols))))
    for bit in draw(st.lists(st.integers(0, rows * cols - 1), max_size=2)):
        mask ^= 1 << bit
    return rows, cols, mask


@settings(max_examples=400, deadline=None)
@given(near_rothe_masks())
def test_near_rothe_masks(case):
    rows, cols, mask = case
    _assert_kernel_matches(rows, cols, [mask])


def test_kernel_reads_nothing_from_rules():
    code = oracle._mask_verdicts.__code__
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names.update(const.co_names)
    assert not names & (set(rules.__all__) | {"rules", "Diagram", "_mask_diagram"})


def test_sweep_builds_no_diagram_when_verdicts_agree(monkeypatch):
    built = []
    monkeypatch.setattr(oracle, "_mask_diagram", lambda *args: built.append(args))
    assert verify_characterizations(3, 3, jobs=1).counterexample_total == 0
    assert built == []


# --- counts ------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_4x4():
    started = time.perf_counter()
    report = verify_characterizations(4, 4, jobs=1)
    return report, time.perf_counter() - started


@pytest.mark.parametrize("rows, cols, expected", [(2, 2, 7), (3, 3, 34), (3, 4, 73)])
def test_counts_match_lehmer_listing(rows, cols, expected):
    assert len(rothe_masks(rows, cols)) == expected
    report = verify_characterizations(rows, cols)
    assert report.examined == 1 << rows * cols
    assert report.counts == dict.fromkeys(report.counts, expected)
    assert len(report.counts) == 5
    assert report.counterexample_total == 0


def test_counts_4x4(sweep_4x4):
    report, _ = sweep_4x4
    assert report.examined == 1 << 16
    assert report.counts == {
        key: len(rothe_masks(4, 4))
        for key in ("rothe", "popping_gap", "numbering_dot", "dot_southwest", "numbering_stepout")
    }
    assert set(report.counts.values()) == {209}
    assert report.counterexample_total == 0


def test_4x4_budget(sweep_4x4):
    _, seconds = sweep_4x4
    assert seconds < 6.0, f"verify_characterizations(4, 4) took {seconds:.2f} s, budget 6 s"


# --- counterexamples -----------------------------------------------------------


def _disagree_on(monkeypatch, chosen) -> None:
    """Make the kernel flip its ``rothe`` verdict on the chosen masks."""
    kernel = oracle._mask_verdicts

    def patched(rows, cols, mask):
        verdicts = kernel(rows, cols, mask)
        if mask in chosen:
            verdicts = {**verdicts, "rothe": not verdicts["rothe"]}
        return verdicts

    monkeypatch.setattr(oracle, "_mask_verdicts", patched)


def _entry(rows, cols, mask) -> dict:
    diagram = oracle._mask_diagram(oracle._grid_positions(rows, cols), mask)
    verdicts = oracle._mask_verdicts(rows, cols, mask)
    return {**diagram.to_json_obj(), "verdicts": verdicts}


def test_disagreeing_masks_are_reported(monkeypatch):
    chosen = [0b000000110, 0b000010001, 0b100000000]
    _disagree_on(monkeypatch, set(chosen))
    report = verify_characterizations(3, 3, jobs=1)
    entries = [_entry(3, 3, mask) for mask in chosen]
    assert report.counterexample_total == len(chosen)
    assert list(report.counterexamples) == sorted(entries, key=lambda ce: ce["cells"])
    assert [ce["cells"] for ce in report.counterexamples] == [
        [[1, 1], [2, 2]],
        [[1, 2], [1, 3]],
        [[3, 3]],
    ]
    for ce in report.counterexamples:
        assert len(set(ce["verdicts"].values())) == 2
    flips = sum(-1 if mask in rothe_masks(3, 3) else 1 for mask in chosen)
    assert report.counts["rothe"] == report.counts["dot_southwest"] + flips == 34 + flips


def test_counterexamples_are_capped_and_counted_in_full(monkeypatch):
    chosen = list(range(511, 511 - 3 * 15, -3))
    _disagree_on(monkeypatch, set(chosen))
    report = verify_characterizations(3, 3, jobs=1)
    assert report.counterexample_total == len(chosen) > oracle.COUNTEREXAMPLE_CAP
    kept = sorted(chosen)[: oracle.COUNTEREXAMPLE_CAP]
    expected = sorted((_entry(3, 3, mask) for mask in kept), key=lambda ce: ce["cells"])
    assert list(report.counterexamples) == expected
    assert len(report.counterexamples) == oracle.COUNTEREXAMPLE_CAP


def test_capped_counterexamples_do_not_depend_on_jobs(monkeypatch, in_process_pool):
    # 74 disagreements, spread over every span; the first ten in mask order are kept.
    chosen = range(0, 512, 7)
    _disagree_on(monkeypatch, set(chosen))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    single = verify_characterizations(3, 3, jobs=1)
    split = verify_characterizations(3, 3, jobs=2)
    assert in_process_pool == [2]
    kept = chosen[: oracle.COUNTEREXAMPLE_CAP]
    expected = sorted((_entry(3, 3, mask) for mask in kept), key=lambda ce: ce["cells"])
    for report in (single, split):
        assert list(report.counterexamples) == expected
        assert report.counterexample_total == len(chosen)
    shown = [{**report.to_json_obj(), "elapsed_ms": 0} for report in (single, split)]
    assert json.dumps(shown[0]) == json.dumps(shown[1])
