"""The output-sensitive inversion kernels against the all-pairs reference.

``rothe_diagram`` (union-find over unused values) and ``lehmer_code``
(Fenwick tree) must give exactly the inversion cells and per-position
counts that comparing every pair of positions gives; ``rothe_via_death_rays``
is the independent construction held to the same reference.  Words with a
long fixed prefix are the case the scans exist for, so they are diffed too
and timed against a budget.
"""

from __future__ import annotations

import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from rothe import (
    Diagram,
    LehmerCode,
    Permutation,
    classify,
    lehmer_code,
    rothe_diagram,
    rothe_via_death_rays,
)

import reference

BUDGET_PREFIX = 20000
BUDGET_BLOCK = (4, 2, 3, 1, 6, 5)

shuffled_words = st.integers(0, 300).flatmap(lambda n: st.permutations(range(1, n + 1)))
prefixed_words = st.tuples(
    st.integers(0, 2000), st.integers(0, 12).flatmap(lambda k: st.permutations(range(1, k + 1)))
).map(lambda pair: [*range(1, pair[0] + 1), *(pair[0] + v for v in pair[1])])


def assert_matches_reference(word) -> None:
    w = Permutation.from_word(word)
    cells = reference.inversion_cells(w.word)
    diagram = rothe_diagram(w)
    code = lehmer_code(w)
    assert diagram.cells == cells
    assert code == LehmerCode.from_counts(reference.inversion_counts(w.word))
    assert rothe_via_death_rays(w).cells == cells
    assert sum(code.counts) == len(diagram)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_permutation_up_to_s7(n):
    for word in permutations(range(1, n + 1)):
        assert_matches_reference(word)


@settings(max_examples=100, deadline=None)
@given(shuffled_words)
def test_shuffled_words(word):
    assert_matches_reference(word)


@settings(max_examples=15, deadline=None)
@given(prefixed_words)
def test_fixed_prefix_then_shuffled_block(word):
    assert_matches_reference(word)


def test_longest_fixed_prefix():
    block = list(range(1, 13))
    random.Random("kernels:2000").shuffle(block)
    assert_matches_reference([*range(1, 2001), *(2000 + v for v in block)])


class TestKernelBudget:
    """Six inversions after 20,000 fixed letters cost the scan, not the square."""

    word = Permutation.from_word(
        [*range(1, BUDGET_PREFIX + 1), *(BUDGET_PREFIX + v for v in BUDGET_BLOCK)]
    )

    @staticmethod
    def best_ms(build):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            result = build()
            times.append((time.perf_counter() - t0) * 1000)
        return min(times), result

    def test_rothe_diagram(self):
        elapsed_ms, diagram = self.best_ms(lambda: rothe_diagram(self.word))
        assert len(diagram) == 6
        assert elapsed_ms < 250, f"rothe_diagram took {elapsed_ms:.1f} ms"

    def test_lehmer_code(self):
        elapsed_ms, code = self.best_ms(lambda: lehmer_code(self.word))
        assert sum(code.counts) == 6
        assert elapsed_ms < 250, f"lehmer_code took {elapsed_ms:.1f} ms"

    def test_classify(self):
        cells = rothe_diagram(self.word).cells
        elapsed_ms, reports = self.best_ms(lambda: classify(Diagram(cells)))
        assert all(report.holds for report in reports)
        assert elapsed_ms < 1000, f"classify took {elapsed_ms:.1f} ms"
