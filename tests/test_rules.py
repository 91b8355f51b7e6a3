"""Characterization rule checkers: dots, popping, southwest, numbering, gaps."""

from __future__ import annotations

import itertools
import random

import pytest

import reference
from rothe import (
    Diagram,
    DotSet,
    GapBox,
    NumberingRequiredError,
    Permutation,
    check_dot_rule,
    check_empty_cell_gap,
    check_horizontal_popping,
    check_numbering,
    check_rothe,
    check_southwest,
    check_vertical_popping,
    classify,
    column_dots,
    condition_verdicts,
    enumerate_grid_diagrams,
    enumerate_permutations,
    final_bubbles,
    find_step_outs,
    gap_boxes,
    horizontal_numbering,
    oracle,
    recover_permutation,
    rothe_diagram,
    row_dots,
    rules,
    vertical_numbering,
)

from goldens import (
    D1,
    D1_COL_DOTS,
    D1_H_LABELS,
    D1_ROW_DOTS,
    D2,
    D2_DOTS,
    D2_H_LABELS,
    D2_V_LABELS,
    RUNNING_CELLS,
    RUNNING_COL3_LABELS,
    RUNNING_FINALS,
    RUNNING_GAPS,
    RUNNING_ROW4_LABELS,
    RUNNING_ROW_DOTS,
)

RUNNING = Diagram(RUNNING_CELLS)
DIAG1 = Diagram(D1)
DIAG2 = Diagram(D2)


def all_canonical(n):
    return [Permutation.from_word(w) for w in itertools.permutations(range(1, n + 1))]


class TestRowDots:
    def test_running_example(self):
        ds = row_dots(RUNNING)
        assert ds.dots[:9] == RUNNING_ROW_DOTS
        assert ds.horizon >= 9

    def test_d1(self):
        assert row_dots(DIAG1).dots[:3] == D1_ROW_DOTS

    def test_empty_diagonal(self):
        ds = row_dots(Diagram())
        assert all(dot == (i, i) for i, dot in enumerate(ds.dots, 1))

    def test_one_dot_per_row_distinct_columns(self):
        ds = row_dots(RUNNING)
        rows = [r for (r, _) in ds.dots]
        cols = [c for (_, c) in ds.dots]
        assert rows == list(range(1, ds.horizon + 1))
        assert len(set(cols)) == len(cols)

    def test_stabilized_tail_is_minimal_unused(self):
        for cells in (RUNNING_CELLS, D1, D2, frozenset()):
            d = Diagram(cells)
            ds = row_dots(d)
            m = max((max(r, c) for (r, c) in cells), default=0)
            used = set()
            for (r, c) in ds.dots:
                if r > m:
                    expect = 1
                    while expect in used:
                        expect += 1
                    assert c == expect
                used.add(c)

    def test_dotset_validation(self):
        with pytest.raises(ValueError):
            DotSet(dots=((1, 1), (2, 1)), horizon=2)
        with pytest.raises(ValueError):
            DotSet(dots=((2, 1), (2, 2)), horizon=2)


class TestColumnDots:
    def test_running_example_same_cells(self):
        assert set(column_dots(RUNNING).dots[:9]) == set(RUNNING_ROW_DOTS)

    def test_d1(self):
        assert column_dots(DIAG1).dots[:3] == D1_COL_DOTS

    def test_empty_diagonal(self):
        ds = column_dots(Diagram())
        assert all(dot == (j, j) for j, dot in enumerate(ds.dots, 1))


class TestDotRule:
    def test_running_holds(self):
        assert check_dot_rule(RUNNING).holds

    def test_d1_fails_with_witnesses(self):
        rep = check_dot_rule(DIAG1)
        assert not rep.holds
        assert set(rep.witnesses) == (set(D1_ROW_DOTS) | set(D1_COL_DOTS)) - (
            set(D1_ROW_DOTS) & set(D1_COL_DOTS)
        )

    def test_d2_holds(self):
        assert check_dot_rule(DIAG2).holds
        assert row_dots(DIAG2).dots[:3] == D2_DOTS
        # Column dots enumerate by column, which reads the same set backwards.
        assert column_dots(DIAG2).dots[:3] == D2_DOTS[::-1]

    def test_rothe_diagrams_dotted_at_origins(self):
        for w in all_canonical(5):
            d = rothe_diagram(w)
            assert check_dot_rule(d).holds
            expected = {(i, w.value(i)) for i in range(1, row_dots(d).horizon + 1)}
            assert set(row_dots(d).dots) == expected


class TestPopping:
    def test_vertical_d1(self):
        rep = check_vertical_popping(DIAG1)
        assert not rep.holds
        assert rep.witnesses == (((2, 2), (1, 2)),)

    def test_horizontal_d1(self):
        rep = check_horizontal_popping(DIAG1)
        assert not rep.holds
        assert rep.witnesses == (((2, 2), (2, 1)),)

    def test_d2_passes_both(self):
        assert check_vertical_popping(DIAG2).holds
        assert check_horizontal_popping(DIAG2).holds

    def test_empty_passes(self):
        assert check_vertical_popping(Diagram()).holds
        assert check_horizontal_popping(Diagram()).holds

    def test_rothe_diagrams_pass(self):
        for w in all_canonical(5):
            d = rothe_diagram(w)
            assert check_vertical_popping(d).holds
            assert check_horizontal_popping(d).holds

    def test_popping_pair_equivalent_to_dot_rule_4x4(self):
        # Exhaustive over all 65536 subsets of the 4x4 grid.
        for d in enumerate_grid_diagrams(4, 4):
            both = check_vertical_popping(d).holds and check_horizontal_popping(d).holds
            assert both == check_dot_rule(d).holds


class TestSouthwest:
    def test_running_holds(self):
        assert check_southwest(RUNNING).holds

    def test_d2_fails(self):
        rep = check_southwest(DIAG2)
        assert not rep.holds
        assert rep.witnesses == (((1, 2), (2, 1)),)

    def test_single_cell_holds(self):
        assert check_southwest(Diagram(frozenset({(3, 5)}))).holds

    def test_witnesses_name_missing_corner(self):
        for d in enumerate_grid_diagrams(3, 3):
            for (a, b) in check_southwest(d).witnesses:
                corner = (min(a[0], b[0]), min(a[1], b[1]))
                assert a in d.cells and b in d.cells
                assert corner not in d.cells


class TestNumbering:
    def test_running_row4(self):
        labels = horizontal_numbering(RUNNING)
        assert {c: labels[c] for c in RUNNING_ROW4_LABELS} == RUNNING_ROW4_LABELS

    def test_running_col3(self):
        labels = vertical_numbering(RUNNING)
        assert {c: labels[c] for c in RUNNING_COL3_LABELS} == RUNNING_COL3_LABELS

    def test_labels_cover_cells_exactly(self):
        assert set(horizontal_numbering(RUNNING)) == RUNNING_CELLS
        assert set(vertical_numbering(RUNNING)) == RUNNING_CELLS
        assert horizontal_numbering(Diagram()) == {}

    def test_d1_and_d2_labels(self):
        assert horizontal_numbering(DIAG1) == D1_H_LABELS
        assert vertical_numbering(DIAG1) == D1_H_LABELS
        assert horizontal_numbering(DIAG2) == D2_H_LABELS
        assert vertical_numbering(DIAG2) == D2_V_LABELS

    def test_check_numbering_verdicts(self):
        assert check_numbering(RUNNING).holds
        assert check_numbering(DIAG1).holds
        rep = check_numbering(DIAG2)
        assert not rep.holds
        assert set(rep.witnesses) == D2

    def test_numbering_identity_on_rothe_diagrams(self):
        for w in all_canonical(6):
            assert check_numbering(rothe_diagram(w)).holds


class TestStepOuts:
    def test_running_has_none(self):
        assert find_step_outs(RUNNING).holds

    def test_d1_has_exactly_one(self):
        rep = find_step_outs(DIAG1)
        assert rep.witnesses == (((1, 1), (2, 2)),)

    def test_d2_precondition_error(self):
        with pytest.raises(NumberingRequiredError):
            find_step_outs(DIAG2)

    def test_empty_holds(self):
        assert find_step_outs(Diagram()).holds

    def test_rothe_diagrams_avoid_step_outs(self):
        for w in all_canonical(5):
            assert find_step_outs(rothe_diagram(w)).holds

    def test_sweep_matches_pair_scan_on_every_3x4_diagram(self):
        for d in enumerate_grid_diagrams(3, 4):
            assert_step_outs_match(dict(d.horizontal_labels))

    def test_sweep_matches_pair_scan_on_random_labels(self):
        rng = random.Random("step-out sweep")
        for _ in range(3000):
            size = rng.randint(1, 24)
            cells = {(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(size)}
            assert_step_outs_match(dict(Diagram(frozenset(cells)).horizontal_labels))
            # Arbitrary labels, as a free collection's labels need not come from a diagram.
            assert_step_outs_match({cell: rng.randint(1, 6) for cell in cells})


def assert_step_outs_match(labels) -> None:
    """The dominance sweep flags exactly the labels the pair scan pairs, with equal output."""
    expected = reference.step_outs(labels)
    assert rules._step_outs(labels) == expected
    stepping = {labels[a] for a, _ in expected}
    by_label: dict[int, list] = {}
    for cell, label in labels.items():
        by_label.setdefault(label, []).append(cell)
    for label, cells in by_label.items():
        upper = by_label.get(label + 1, [])
        assert rules._steps_out(cells, upper) == (label in stepping), (cells, upper)


class TestFinalBubbles:
    def test_running_example(self):
        assert final_bubbles(RUNNING) == RUNNING_FINALS

    def test_d1(self):
        assert final_bubbles(DIAG1) == D1

    def test_empty(self):
        assert final_bubbles(Diagram()) == frozenset()


class TestEmptyCellGap:
    def test_running_boxes(self):
        boxes = gap_boxes(RUNNING)
        summary = {(b.anchor, b.gap_len, b.finals_found) for b in boxes}
        assert summary == RUNNING_GAPS
        assert check_empty_cell_gap(RUNNING).holds

    def test_box_geometry(self):
        for box in gap_boxes(RUNNING):
            assert box.col_hi - box.col_lo + 1 == box.gap_len + 1
            assert box.row_max == box.anchor[0] - 1
            assert box.anchor in RUNNING_CELLS

    def test_d1_single_box_holds(self):
        boxes = gap_boxes(DIAG1)
        assert [(b.anchor, b.col_lo, b.col_hi, b.row_max, b.gap_len, b.finals_found)
                for b in boxes] == [((2, 2), 0, 1, 1, 1, 1)]
        assert check_empty_cell_gap(DIAG1).holds

    def test_d2_fails_height_zero_box(self):
        rep = check_empty_cell_gap(DIAG2)
        assert not rep.holds
        assert len(rep.witnesses) == 1
        box = rep.witnesses[0]
        assert isinstance(box, GapBox)
        assert (box.anchor, box.gap_len, box.finals_found) == ((1, 2), 1, 0)
        assert box.row_max == 0

    def test_gap_needs_bubble_on_both_sides(self):
        # A lone bubble far out: everything right of it is not a gap.
        d = Diagram(frozenset({(1, 4)}))
        boxes = gap_boxes(d)
        assert [(b.anchor, b.gap_len) for b in boxes] == [((1, 4), 3)]
        assert check_empty_cell_gap(d).holds is False  # box needs 3 finals, has 0

    def test_empty_diagram_holds(self):
        assert gap_boxes(Diagram()) == ()
        assert check_empty_cell_gap(Diagram()).holds

    def test_rothe_diagrams_pass(self):
        for w in all_canonical(5):
            assert check_empty_cell_gap(rothe_diagram(w)).holds


class TestVerticalAscension:
    """The paper's vertical-ascension rule, as ``reference.vertical_ascension`` reads it."""

    @staticmethod
    def _masks(rows, cols):
        """Each mask of the grid with its cell set, which becomes a ``Diagram`` only if needed."""
        positions = oracle._grid_positions(rows, cols)
        for mask in range(1 << rows * cols):
            yield mask, frozenset(cell for bit, cell in enumerate(positions) if mask >> bit & 1)

    def test_holds_on_rothe_diagrams_of_s1_to_s7(self):
        for n in range(1, 8):
            for w in enumerate_permutations(n):
                assert reference.vertical_ascension(rothe_diagram(w).cells), str(w)

    @pytest.mark.parametrize("rows, cols", [(3, 4), (4, 4), (3, 5), (5, 3)])
    def test_with_gap_rule_exactly_the_rothe_masks(self, rows, cols):
        accepted, rothe = set(), set()
        for mask, cells in self._masks(rows, cols):
            if reference.vertical_ascension(cells) and check_empty_cell_gap(Diagram(cells)).holds:
                accepted.add(mask)
            if oracle._mask_verdicts(rows, cols, mask)["rothe"]:
                rothe.add(mask)
        assert accepted == rothe

    def test_alone_accepts_206_other_masks_of_3x3(self):
        accepted = [
            mask
            for mask, cells in self._masks(3, 3)
            if reference.vertical_ascension(cells)
            and not oracle._mask_verdicts(3, 3, mask)["rothe"]
        ]
        assert len(accepted) == 206


class TestClassify:
    def test_running_all_hold(self):
        assert all(rep.holds for rep in classify(RUNNING))

    def test_d1_report(self):
        by_rule = {rep.rule: rep for rep in classify(DIAG1)}
        assert by_rule["numbering"].holds
        assert not by_rule["dot"].holds
        assert not by_rule["step_out"].holds
        assert not by_rule["is_rothe"].holds

    def test_d2_report_omits_step_out(self):
        by_rule = {rep.rule: rep for rep in classify(DIAG2)}
        assert by_rule["dot"].holds
        assert not by_rule["numbering"].holds
        assert not by_rule["southwest"].holds
        assert not by_rule["empty_cell_gap"].holds
        assert not by_rule["is_rothe"].holds
        assert "step_out" not in by_rule

    def test_check_rothe_matches_recover(self):
        for d in enumerate_grid_diagrams(2, 2):
            assert check_rothe(d).holds == (recover_permutation(d) is not None)

    def test_condition_verdicts_keys(self):
        verdicts = condition_verdicts(RUNNING)
        assert verdicts == {
            "rothe": True,
            "popping_gap": True,
            "numbering_dot": True,
            "dot_southwest": True,
            "numbering_stepout": True,
        }


class TestWitnessSoundness:
    """Every reported witness, re-checked in isolation, violates its rule."""

    def test_over_all_3x3_diagrams(self):
        for d in enumerate_grid_diagrams(3, 3):
            rdots = set(row_dots(d).dots)
            cdots = set(column_dots(d).dots)
            for (bubble, dot) in check_vertical_popping(d).witnesses:
                assert dot in rdots and bubble in d.cells
                assert bubble[1] == dot[1] and bubble[0] > dot[0]
            for (bubble, dot) in check_horizontal_popping(d).witnesses:
                assert dot in cdots and bubble in d.cells
                assert bubble[0] == dot[0] and bubble[1] > dot[1]
            for cell in check_dot_rule(d).witnesses:
                assert (cell in rdots) != (cell in cdots)
            h = horizontal_numbering(d)
            v = vertical_numbering(d)
            for cell in check_numbering(d).witnesses:
                assert h[cell] != v[cell]
            for box in check_empty_cell_gap(d).witnesses:
                assert box.finals_found != box.gap_len
            if check_numbering(d).holds:
                for (a, b) in find_step_outs(d).witnesses:
                    assert h[b] == h[a] + 1
                    assert b[0] > a[0] and b[1] > a[1]
