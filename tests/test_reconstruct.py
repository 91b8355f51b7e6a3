"""Row-by-row builders and free-column placement."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rothe import (
    Diagram,
    FreeColumns,
    LehmerCode,
    NumberingRequiredError,
    Permutation,
    Placement,
    build_from_row_counts,
    build_stepout_avoiding,
    check_free_numbering,
    classify,
    find_free_step_outs,
    lehmer_code,
    parse_permutation,
    permutation_from_lehmer,
    place_free_columns,
    recover_permutation,
    rothe_diagram,
    row_counts,
)

from goldens import (
    CELLS_231,
    FREE_COLUMNS,
    FREE_PLACED_CELLS,
    FREE_PLACED_WORD_TEXT,
    FREE_POSITIONS,
    RUNNING_CELLS,
    RUNNING_CODE,
)
from test_core import Row
from test_dot_pieces import best_ms


class TestBuildFromRowCounts:
    def test_running_example(self):
        assert build_from_row_counts(LehmerCode(RUNNING_CODE)).cells == RUNNING_CELLS

    def test_empty_code(self):
        assert build_from_row_counts(LehmerCode()).cells == frozenset()

    def test_11(self):
        assert build_from_row_counts(LehmerCode((1, 1))).cells == CELLS_231

    def test_accepts_plain_sequences(self):
        assert build_from_row_counts([1, 1]).cells == CELLS_231
        # A plain sequence is read as LehmerCode reads it: no float or bool counts.
        for build in (build_from_row_counts, build_stepout_avoiding, permutation_from_lehmer):
            for counts in ([True, 2.5], [1.7, True], [1, False]):
                with pytest.raises(ValueError, match="nonnegative integers"):
                    build(counts)

    def test_matches_rothe_diagram_over_s6(self):
        for word in itertools.permutations(range(1, 7)):
            w = Permutation.from_word(word)
            assert build_from_row_counts(lehmer_code(w)) == rothe_diagram(w)


class TestBuildStepoutAvoiding:
    def test_running_example(self):
        assert build_stepout_avoiding(LehmerCode(RUNNING_CODE)).cells == RUNNING_CELLS

    def test_empty(self):
        assert build_stepout_avoiding(LehmerCode()).cells == frozenset()

    def test_11(self):
        assert build_stepout_avoiding(LehmerCode((1, 1))).cells == CELLS_231

    def test_three_way_equality_small_codes(self):
        for length in range(5):
            for counts in itertools.product(range(4), repeat=length):
                code = LehmerCode.from_counts(counts)
                built = build_from_row_counts(code)
                assert build_stepout_avoiding(code) == built
                assert rothe_diagram(permutation_from_lehmer(code)) == built


class TestRowCountUniqueness:
    def test_unique_passing_diagram_per_code_s6(self):
        # Among all diagrams in D(w)'s own bounding box with the same row
        # counts, only D(w) itself passes vertical popping + empty cell gap.
        from rothe import check_empty_cell_gap, check_vertical_popping

        for word in itertools.permutations(range(1, 7)):
            w = Permutation.from_word(word)
            target = rothe_diagram(w)
            if not target.cells:
                continue
            width = target.max_col
            counts = row_counts(target).counts
            survivors = []
            per_row = [
                list(itertools.combinations(range(1, width + 1), a)) for a in counts
            ]
            for rows in itertools.product(*per_row):
                cells = frozenset(
                    (i, c) for i, cols in enumerate(rows, 1) for c in cols
                )
                d = Diagram(cells)
                if check_vertical_popping(d).holds and check_empty_cell_gap(d).holds:
                    survivors.append(d)
            assert survivors == [target]


class TestFreeNumbering:
    def test_worked_example_holds(self):
        assert check_free_numbering(FreeColumns.from_sets(FREE_COLUMNS)).holds

    def test_broken_interval_fails(self):
        rep = check_free_numbering(FreeColumns.from_sets([{1, 3}]))
        assert not rep.holds
        assert rep.witnesses == (((1, 1), (3, 1)),)

    def test_single_row_column_holds(self):
        assert check_free_numbering(FreeColumns.from_sets([{1}])).holds

    def test_non_increasing_starts_fail(self):
        # Column 1 starts its run at 2, column 2 at 1: runs must start
        # strictly later going right.
        rep = check_free_numbering(FreeColumns.from_sets([{2}, {1, 2}]))
        assert not rep.holds

    def test_decreasing_labels_fail(self):
        # Column 3 reads labels 3 then 2 going up; not a valid run.
        rep = check_free_numbering(FreeColumns.from_sets([{1}, {1}, {1, 2}]))
        assert not rep.holds


class TestFreeStepOuts:
    def test_worked_example_holds(self):
        assert find_free_step_outs(FreeColumns.from_sets(FREE_COLUMNS)).holds

    def test_step_out_found(self):
        rep = find_free_step_outs(FreeColumns.from_sets([{1}, {2}]))
        assert not rep.holds
        assert rep.witnesses == (((1, 1), (2, 2)),)

    def test_single_column_has_no_pairs(self):
        assert find_free_step_outs(FreeColumns.from_sets([{2, 3}])).holds

    def test_precondition_error(self):
        with pytest.raises(NumberingRequiredError):
            find_free_step_outs(FreeColumns.from_sets([{1, 3}]))


class TestPlaceFreeColumns:
    def test_worked_example(self):
        result = place_free_columns(FreeColumns.from_sets(FREE_COLUMNS))
        assert result is not None
        placement, diagram = result
        assert placement.positions == FREE_POSITIONS
        assert diagram.cells == FREE_PLACED_CELLS
        recovered = recover_permutation(diagram)
        assert recovered == parse_permutation(FREE_PLACED_WORD_TEXT)

    def test_unplaceable_column(self):
        assert place_free_columns(FreeColumns.from_sets([{1, 3}])) is None

    def test_step_out_collection_absent(self):
        assert place_free_columns(FreeColumns.from_sets([{1}, {2}])) is None

    def test_empty_collection(self):
        result = place_free_columns(FreeColumns())
        assert result is not None
        placement, diagram = result
        assert placement.positions == ()
        assert diagram.cells == frozenset()

    def test_placed_diagrams_pass_every_rule(self):
        samples = [
            FREE_COLUMNS,
            [{1}],
            [{1}, {1}],
            [{1, 2}, {3}],
            [{2, 3}],
            [{1, 2, 3}],
        ]
        for sets in samples:
            result = place_free_columns(FreeColumns.from_sets(sets))
            if result is None:
                continue
            _, diagram = result
            assert all(rep.holds for rep in classify(diagram))

    def test_column_contents_preserved(self):
        result = place_free_columns(FreeColumns.from_sets(FREE_COLUMNS))
        placement, diagram = result
        for pos, rows in zip(placement.positions, FREE_COLUMNS):
            assert diagram.column_rows(pos) == tuple(sorted(rows))

    def test_budget_far_row(self):
        """A column at row 10^20 costs its cells, not a dot word of 2 * 10^20 letters."""
        collection = FreeColumns.from_sets([{10**20}])
        elapsed_ms = best_ms(lambda: place_free_columns(collection))
        placement, _ = place_free_columns(collection)
        assert placement.positions == (10**20,)
        assert elapsed_ms < 5, f"place_free_columns took {elapsed_ms:.2f} ms"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
            max_size=4,
        )
    )
    def test_random_collections(self, sets):
        collection = FreeColumns.from_sets(sets)
        result = place_free_columns(collection)
        if result is None:
            assert not (
                check_free_numbering(collection).holds
                and find_free_step_outs(collection).holds
            )
            return
        placement, diagram = result
        assert len(placement.positions) == len(sets)
        assert recover_permutation(diagram) is not None
        for pos, rows in zip(placement.positions, sets):
            assert diagram.column_rows(pos) == tuple(sorted(rows))


class TestReconstructTypes:
    def test_free_columns_validation(self):
        with pytest.raises(ValueError):
            FreeColumns.from_sets([set()])
        with pytest.raises(ValueError):
            FreeColumns.from_sets([{0, 1}])
        with pytest.raises(ValueError, match="invalid row"):
            FreeColumns.from_sets([{Row(1)}])

    def test_free_columns_json_round_trip(self):
        c = FreeColumns.from_sets(FREE_COLUMNS)
        assert FreeColumns.from_json_obj(c.to_json_obj()) == c
        assert c.to_json_obj() == {"columns": [[1, 2], [2, 4, 5], [2], [5]]}

    def test_free_columns_json_rejects_malformed(self):
        for obj in ({}, {"columns": [[]]}, {"columns": [[1, 1]]}, {"columns": "x"}):
            with pytest.raises(ValueError):
                FreeColumns.from_json_obj(obj)

    def test_placement_validation(self):
        with pytest.raises(ValueError):
            Placement((3, 2))
        with pytest.raises(ValueError):
            Placement((0, 1))
        with pytest.raises(ValueError, match="positive integers"):
            Placement((Row(1),))
        # The error text shows the first 20 positions and the length, not all of them.
        with pytest.raises(ValueError) as error:
            Placement(tuple(range(100000, 0, -1)))
        assert str(error.value) == (
            "positions must strictly increase: (100000, 99999, 99998, 99997, 99996, 99995, "
            "99994, 99993, 99992, 99991, 99990, 99989, 99988, 99987, 99986, 99985, 99984, "
            "99983, 99982, 99981, ...) of length 100000"
        )
        assert Placement((1, 3, 4, 6)).to_json_obj() == {"positions": [1, 3, 4, 6]}
