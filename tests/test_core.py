"""Core types and constructions: parsing, diagrams, Lehmer bijection, recovery."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from rothe import (
    Diagram,
    LehmerCode,
    ParseError,
    Permutation,
    lehmer_code,
    parse_permutation,
    permutation_from_lehmer,
    recover_permutation,
    rothe_diagram,
    rothe_via_death_rays,
    row_counts,
)

from goldens import (
    CELLS_21,
    CELLS_231,
    CODE_231,
    D2,
    RUNNING_CELLS,
    RUNNING_CODE,
    RUNNING_TEXT,
    RUNNING_WORD,
)
from test_cli import json_documents, row_lists

# Misspelt keys next to a loader's own: each one must be refused.
extra_keys = {"cels": json_documents, "count": json_documents, "": json_documents}


class Row(int):
    """An ``int`` subclass: the constructors take exactly ``int``, never a subclass."""


def inversion_cells(word):
    """Definition-level reference: the cell set read straight off the inversion pairs."""
    n = len(word)
    return frozenset(
        (i + 1, word[j])
        for i in range(n)
        for j in range(i + 1, n)
        if word[i] > word[j]
    )


def all_canonical(n):
    return [Permutation.from_word(w) for w in itertools.permutations(range(1, n + 1))]


class TestParsePermutation:
    def test_compact_digits(self):
        assert parse_permutation(RUNNING_TEXT).word == RUNNING_WORD

    def test_separated_tokens(self):
        assert parse_permutation("1 5 2 8 6 9 3 4 7").word == RUNNING_WORD
        assert parse_permutation("1,5,2,8,6,9,3,4,7").word == RUNNING_WORD
        assert parse_permutation("  2 ,  1 ").word == (2, 1)

    def test_identity_trimmed(self):
        assert parse_permutation("1 2 3").word == ()
        assert parse_permutation("1").word == ()
        assert parse_permutation("12").word == ()

    def test_partial_trim(self):
        assert parse_permutation("2 1 3 4").word == (2, 1)

    def test_multidigit_values_need_separators(self):
        word = tuple(range(2, 12)) + (1,)
        text = " ".join(str(v) for v in word)
        assert parse_permutation(text).word == word

    def test_duplicate_value(self):
        with pytest.raises(ParseError, match="duplicate value 2"):
            parse_permutation("2 2 1")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_permutation("1 5 2")

    def test_non_numeric(self):
        with pytest.raises(ParseError, match="position 2"):
            parse_permutation("1 x 2")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_permutation("")
        with pytest.raises(ParseError):
            parse_permutation("  ,  ")

    def test_zero_rejected(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_permutation("10")

    @given(st.text(max_size=20))
    def test_fuzz_never_crashes(self, text):
        try:
            parse_permutation(text)
        except ParseError:
            pass

    @pytest.mark.parametrize("text", ["\u00b2", "\u00b9", "1\u00b2", "\u0662\u0661"])
    def test_non_ascii_digits_rejected(self, text):
        # Superscripts pass str.isdigit but not int(); Arabic-Indic digits
        # pass both and would otherwise read as the permutation 21.
        with pytest.raises(ParseError, match="non-numeric token"):
            parse_permutation(text)


class TestPermutation:
    def test_constructor_requires_canonical(self):
        with pytest.raises(ValueError):
            Permutation((2, 1, 3))
        with pytest.raises(ValueError):
            Permutation((1,))

    def test_constructor_requires_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 3, 2, 5))
        with pytest.raises(ValueError):
            Permutation((2, 2, 1))
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation((2, True))
        # Messages show a word of up to 20 letters whole, and a longer one cut short.
        word = (2, 1, *range(3, 21))
        with pytest.raises(ValueError) as error:
            Permutation(word)
        assert str(error.value) == f"word {word} is not canonical: last position is fixed"
        with pytest.raises(ValueError) as error:
            Permutation((1,) * 100_000)
        assert str(error.value) == (
            "word (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, ...) "
            "of length 100000 is not a permutation of 1..100000"
        )
        # The fixed tail is trimmed only where its letters are exact ints.
        for word in ([True], [2, 1, 3.0]):
            with pytest.raises(ValueError, match="not a permutation"):
                Permutation.from_word(word)

    def test_from_word_trims_fixed_tail(self):
        assert Permutation.from_word((2, 1, 3, 4, 5)).word == (2, 1)
        assert Permutation.from_word(()).word == ()

    def test_identity_tail_values(self):
        w = Permutation((2, 1))
        assert [w.value(i) for i in range(1, 6)] == [2, 1, 3, 4, 5]

    def test_text_round_trip(self):
        for text in (RUNNING_TEXT, "21", "1"):
            w = parse_permutation(text)
            assert parse_permutation(str(w)) == w

    def test_multidigit_text_uses_separators(self):
        word = tuple(range(2, 12)) + (1,)
        w = Permutation(word)
        assert str(w) == " ".join(str(v) for v in word)
        assert parse_permutation(str(w)) == w


class TestRotheDiagram:
    def test_running_example(self):
        assert rothe_diagram(parse_permutation(RUNNING_TEXT)).cells == RUNNING_CELLS

    def test_identity_empty(self):
        assert rothe_diagram(Permutation()).cells == frozenset()

    def test_231(self):
        assert rothe_diagram(parse_permutation("231")).cells == CELLS_231

    def test_21(self):
        assert rothe_diagram(parse_permutation("21")).cells == CELLS_21

    def test_matches_definition_small(self):
        for n in range(1, 6):
            for w in all_canonical(n):
                assert rothe_diagram(w).cells == inversion_cells(w.word)


class TestDeathRays:
    def test_running_example(self):
        w = parse_permutation(RUNNING_TEXT)
        assert rothe_via_death_rays(w) == rothe_diagram(w)

    def test_identity(self):
        assert rothe_via_death_rays(Permutation()).cells == frozenset()

    def test_21(self):
        assert rothe_via_death_rays(parse_permutation("21")).cells == CELLS_21

    def test_agrees_with_inversions_up_to_7(self):
        for n in range(1, 8):
            for word in itertools.permutations(range(1, n + 1)):
                w = Permutation.from_word(word)
                assert rothe_via_death_rays(w) == rothe_diagram(w)


class TestLehmerCode:
    def test_running_example(self):
        assert lehmer_code(parse_permutation(RUNNING_TEXT)).counts == RUNNING_CODE

    def test_identity(self):
        assert lehmer_code(Permutation()).counts == ()

    def test_231(self):
        assert lehmer_code(parse_permutation("231")).counts == CODE_231

    def test_canonical_trims_trailing_zeros(self):
        assert LehmerCode.from_counts([1, 0, 0]).counts == (1,)
        assert LehmerCode.from_counts([]).counts == ()
        with pytest.raises(ValueError):
            LehmerCode((1, 0))
        with pytest.raises(ValueError):
            LehmerCode((-1,))
        for counts in ([1, False], [1, 0.0]):
            with pytest.raises(ValueError, match="nonnegative integers"):
                LehmerCode.from_counts(counts)
        with pytest.raises(ValueError, match="nonnegative integers") as error:
            permutation_from_lehmer([1] * 200_000 + [-1])
        assert len(str(error.value)) < 120

    def test_equals_row_counts_of_diagram(self):
        for w in all_canonical(5):
            assert row_counts(rothe_diagram(w)) == lehmer_code(w)


class TestLehmerBijection:
    def test_running_example(self):
        assert permutation_from_lehmer(LehmerCode(RUNNING_CODE)).word == RUNNING_WORD

    def test_empty_code(self):
        assert permutation_from_lehmer(LehmerCode()) == Permutation()

    def test_11_gives_231(self):
        assert permutation_from_lehmer(LehmerCode((1, 1))).word == (2, 3, 1)

    def test_round_trip_over_s6(self):
        for w in all_canonical(6):
            assert permutation_from_lehmer(lehmer_code(w)) == w

    def test_round_trip_over_small_codes(self):
        for length in range(5):
            for counts in itertools.product(range(4), repeat=length):
                code = LehmerCode.from_counts(counts)
                assert lehmer_code(permutation_from_lehmer(code)) == code

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=6))
    def test_round_trip_random_codes(self, counts):
        code = LehmerCode.from_counts(counts)
        assert lehmer_code(permutation_from_lehmer(code)) == code


class TestRowCounts:
    def test_running_example(self):
        assert row_counts(Diagram(RUNNING_CELLS)).counts == RUNNING_CODE

    def test_empty(self):
        assert row_counts(Diagram()).counts == ()

    def test_231(self):
        assert row_counts(Diagram(CELLS_231)).counts == CODE_231


class TestBoundingBox:
    def test_diagram_fits_in_box(self):
        # D(w) always lies inside the (n-1) x (n-1) corner for w of length n.
        for w in all_canonical(6):
            d = rothe_diagram(w)
            n = len(w.word)
            for (r, c) in d.cells:
                assert r <= max(n - 1, 0) and c <= max(n - 1, 0)


class TestRecoverPermutation:
    def test_running_example(self):
        assert recover_permutation(Diagram(RUNNING_CELLS)).word == RUNNING_WORD

    def test_non_rothe_absent(self):
        assert recover_permutation(Diagram(D2)) is None

    def test_empty_is_identity(self):
        assert recover_permutation(Diagram()) == Permutation()

    def test_round_trip_up_to_7(self):
        for n in (6, 7):
            for word in itertools.permutations(range(1, n + 1)):
                w = Permutation.from_word(word)
                assert recover_permutation(rothe_diagram(w)) == w


class TestDiagramType:
    def test_rejects_bad_cells(self):
        with pytest.raises(ValueError):
            Diagram(frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            Diagram(frozenset({(1, 0)}))
        with pytest.raises(ValueError, match="not an integer pair"):
            Diagram(frozenset({(True, 1)}))
        with pytest.raises(ValueError, match="not an integer pair"):
            Diagram(frozenset({(Row(1), 1)}))
        # from_cells neither truncates floats nor reads bools as integers.
        with pytest.raises(ValueError, match="not an integer pair"):
            Diagram.from_cells([(1.9, 2), (True, 1)])
        assert Diagram.from_cells([[1, 2], [3, 1]]).cells == {(1, 2), (3, 1)}

    def test_json_round_trip(self):
        d = Diagram(RUNNING_CELLS)
        assert Diagram.from_json_obj(d.to_json_obj()) == d
        assert d.to_json_obj() == {"cells": [list(c) for c in sorted(RUNNING_CELLS)]}

    def test_json_rejects_malformed(self):
        for obj in ({}, {"cells": [[1]]}, {"cells": [[1, 2], [1, 2]]}, {"cells": "no"}):
            with pytest.raises(ValueError):
                Diagram.from_json_obj(obj)
        with pytest.raises(ValueError, match='must be an object with a "cells" key'):
            Diagram.from_json_obj({"cels": [[1, 1]]})
        with pytest.raises(ValueError, match="diagram JSON has an unknown key: 'cels'"):
            Diagram.from_json_obj({"cells": [[1, 1]], "cels": [[5, 9]]})
        with pytest.raises(ValueError, match="code JSON has an unknown key: 'count'"):
            LehmerCode.from_json_obj({"count": [], "counts": [1]})

    def test_json_rejects_booleans(self):
        for obj in ({"cells": [[True, True]]}, {"cells": [[1, False]]}):
            with pytest.raises(ValueError, match="not a \\[row, col\\] pair"):
                Diagram.from_json_obj(obj)
        with pytest.raises(ValueError, match="list of integers"):
            LehmerCode.from_json_obj({"counts": [True, 2]})
        with pytest.raises(ValueError, match="nonnegative integers"):
            LehmerCode((True,))

    @settings(max_examples=300, deadline=None)
    @given(
        json_documents
        | st.fixed_dictionaries({"cells": row_lists | json_documents}, optional=extra_keys)
        | st.fixed_dictionaries(
            {"counts": st.lists(json_documents, max_size=4) | json_documents}, optional=extra_keys
        )
    )
    def test_json_loaders_raise_only_value_error(self, document):
        """Any JSON document loads or raises ValueError, never TypeError from hashing.

        A document loads only if its one key is the loader's own.
        """
        for load, key in ((Diagram.from_json_obj, "cells"), (LehmerCode.from_json_obj, "counts")):
            try:
                load(document)
            except ValueError:
                continue
            assert list(document) == [key]

    def test_transpose_involution(self):
        d = Diagram(RUNNING_CELLS)
        assert d.transpose().transpose() == d
        assert d.transpose().cells == frozenset((c, r) for (r, c) in RUNNING_CELLS)


class TestTrimmingBudget:
    """Trimming cuts once at the last unfixed letter or nonzero count."""

    @staticmethod
    def best_ms(build):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            result = build()
            times.append((time.perf_counter() - t0) * 1000)
        return min(times), result

    def test_from_word_long_fixed_tail(self):
        word = (2, 1) + tuple(range(3, 20003))
        elapsed_ms, w = self.best_ms(lambda: Permutation.from_word(word))
        assert w.word == (2, 1)
        assert elapsed_ms < 50, f"from_word took {elapsed_ms:.1f} ms"

    def test_from_counts_trailing_zeros(self):
        counts = (1,) + (0,) * 20000
        elapsed_ms, code = self.best_ms(lambda: LehmerCode.from_counts(counts))
        assert code.counts == (1,)
        assert elapsed_ms < 50, f"from_counts took {elapsed_ms:.1f} ms"
