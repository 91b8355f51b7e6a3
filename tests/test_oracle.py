"""Exhaustive verification harness: enumerations, sweeps, reports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import islice
from types import SimpleNamespace

import pytest

import reference
from rothe import (
    Diagram,
    Permutation,
    enumerate_grid_diagrams,
    enumerate_permutations,
    rothe_diagram,
    verify_characterizations,
    verify_lehmer_bijection,
    verify_rothe_properties,
)
from rothe import oracle


def _without_elapsed(report) -> str:
    obj = report.to_json_obj()
    obj.pop("elapsed_ms")
    return json.dumps(obj, sort_keys=True)


class TestEnumeratePermutations:
    def test_counts(self):
        assert len(list(enumerate_permutations(1))) == 1
        assert len(list(enumerate_permutations(3))) == 6
        assert len(list(enumerate_permutations(5))) == 120

    def test_order_and_canonical_form(self):
        perms = list(enumerate_permutations(3))
        assert perms[0] == Permutation()
        assert perms[-1].word == (3, 2, 1)
        assert len(set(perms)) == 6

    def test_guard(self):
        for n in (0, -1, 10):
            with pytest.raises(ValueError):
                list(enumerate_permutations(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_per_letter_source_matches_flat_enumeration(self, n):
        expected = list(reference.lex_permutations(n))
        spans = [w for first in range(1, n + 1) for w in oracle._permutations_from(n, first)]
        assert spans == expected
        assert list(enumerate_permutations(n)) == expected


class TestEnumerateGridDiagrams:
    def test_counts(self):
        assert len(list(enumerate_grid_diagrams(1, 1))) == 2
        assert len(list(enumerate_grid_diagrams(2, 2))) == 16
        assert len(list(enumerate_grid_diagrams(3, 3))) == 512

    def test_1x1_contents(self):
        diagrams = list(enumerate_grid_diagrams(1, 1))
        assert diagrams == [Diagram(), Diagram(frozenset({(1, 1)}))]

    def test_cells_stay_inside_grid(self):
        for d in enumerate_grid_diagrams(2, 3):
            for (r, c) in d.cells:
                assert 1 <= r <= 2 and 1 <= c <= 3

    def test_deterministic_order(self):
        assert list(enumerate_grid_diagrams(2, 2)) == list(enumerate_grid_diagrams(2, 2))

    def test_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_grid_diagrams(9, 9))
        with pytest.raises(ValueError):
            list(enumerate_grid_diagrams(0, 3))


class TestVerifyCharacterizations:
    def test_1x1(self):
        report = verify_characterizations(1, 1)
        assert report.examined == 2
        assert report.counterexample_total == 0
        assert set(report.counts.values()) == {2}

    def test_2x2_selects_seven_diagrams(self):
        # Six diagrams come from S_3; the seventh is the full grid, whose
        # recovering permutation (3412) needs four letters but still fits.
        report = verify_characterizations(2, 2)
        assert report.examined == 16
        assert report.counterexample_total == 0
        assert set(report.counts.values()) == {7}

    def test_3x3_no_counterexamples(self):
        report = verify_characterizations(3, 3)
        assert report.examined == 512
        assert report.counterexamples == ()
        assert report.counterexample_total == 0
        assert len(set(report.counts.values())) == 1

    def test_determinism_modulo_elapsed(self):
        assert _without_elapsed(verify_characterizations(2, 2)) == _without_elapsed(
            verify_characterizations(2, 2)
        )

    def test_partition_merge_equality(self):
        single = verify_characterizations(3, 3, jobs=1)
        split = verify_characterizations(3, 3, jobs=3)
        assert single.counts == split.counts
        assert single.counterexamples == split.counterexamples
        assert single.examined == split.examined

    def test_guard(self):
        with pytest.raises(ValueError):
            verify_characterizations(6, 6)

    def test_report_json_shape(self):
        obj = verify_characterizations(2, 2).to_json_obj()
        assert set(obj) == {
            "bounds",
            "examined",
            "counts",
            "counterexamples",
            "counterexample_total",
            "elapsed_ms",
        }
        assert obj["bounds"] == "2x2 grid"
        json.dumps(obj)


class TestVerifyLehmerBijection:
    def test_n4(self):
        report = verify_lehmer_bijection(4)
        assert report.checked == 24
        assert report.failure_total == 0

    def test_n1(self):
        report = verify_lehmer_bijection(1)
        assert report.checked == 1
        assert report.failure_total == 0

    def test_n6(self):
        report = verify_lehmer_bijection(6)
        assert report.checked == 720
        assert report.failure_total == 0

    def test_json_shape(self):
        obj = verify_lehmer_bijection(3).to_json_obj()
        assert obj["bounds"] == "n=3"
        assert obj["checked"] == 6
        assert obj["failures"] == []
        json.dumps(obj)


class TestVerifyRotheProperties:
    def test_n3(self):
        report = verify_rothe_properties(3)
        assert report.checked == 6
        assert report.failure_total == 0

    def test_n1(self):
        assert verify_rothe_properties(1).failure_total == 0

    def test_n6(self):
        report = verify_rothe_properties(6)
        assert report.checked == 720
        assert report.failure_total == 0

    def test_guard(self):
        with pytest.raises(ValueError):
            verify_rothe_properties(12)


class TestAgainstIndependentGroundTruth:
    def test_2x2_rothe_set_from_direct_construction(self):
        # Diagrams inside a 2x2 grid have words of at most four letters, so
        # sweeping S_4 and keeping what fits is a complete reference set.
        from_s3 = {rothe_diagram(w) for w in enumerate_permutations(3)}
        expected = {
            d
            for w in enumerate_permutations(4)
            if (d := rothe_diagram(w)).max_row <= 2 and d.max_col <= 2
        }
        assert len(from_s3) == 6
        assert len(expected) == 7
        assert from_s3 < expected
        from rothe import recover_permutation

        found = {
            d for d in enumerate_grid_diagrams(2, 2) if recover_permutation(d) is not None
        }
        assert found == expected


class TestJobsClamp:
    """``jobs`` is capped at the CPU count and the span count; no process is started."""

    @pytest.mark.parametrize(
        "jobs, cpus, grid, workers",
        [
            (100000, 2, (2, 2), [2]),
            (100000, None, (2, 2), []),
            (100000, 64, (1, 2), [4]),
            (3, 8, (2, 2), [3]),
            (1, 8, (2, 2), []),
        ],
    )
    def test_worker_count(self, monkeypatch, in_process_pool, jobs, cpus, grid, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        split = verify_characterizations(*grid, jobs=jobs)
        assert in_process_pool == workers
        single = verify_characterizations(*grid, jobs=1)
        assert (split.counts, split.examined) == (single.counts, single.examined)
        assert split.counterexamples == single.counterexamples

    # One span per first letter, so at most n workers; one pool per sweep.
    @pytest.mark.parametrize(
        "jobs, cpus, n, workers",
        [
            (100000, 2, 5, [2, 2]),
            (100000, None, 5, []),
            (100000, 64, 3, [3, 3]),
            (4, 8, 5, [4, 4]),
            (100000, 64, 1, []),
            (1, 8, 4, []),
        ],
    )
    def test_permutation_worker_count(self, monkeypatch, in_process_pool, jobs, cpus, n, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        split = [verify_lehmer_bijection(n, jobs=jobs), verify_rothe_properties(n, jobs=jobs)]
        assert in_process_pool == workers
        single = [verify_lehmer_bijection(n), verify_rothe_properties(n)]
        assert list(map(_without_elapsed, split)) == list(map(_without_elapsed, single))


class TestMerge:
    """The merged report is the same for every ``jobs``: found entries are capped once."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_property_failures_capped_in_lexicographic_order(
        self, monkeypatch, in_process_pool, jobs
    ):
        failing = [SimpleNamespace(rule="dot", holds=False)]
        monkeypatch.setattr(oracle, "classify", lambda diagram: failing)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        report = verify_rothe_properties(6, jobs=jobs)
        first = islice(reference.lex_permutations(6), oracle.COUNTEREXAMPLE_CAP)
        assert report.failures == tuple({"permutation": str(w), "rule": "dot"} for w in first)
        assert (report.checked, report.failure_total) == (720, 720)
        assert in_process_pool == ([2] if jobs == 2 else [])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lehmer_failures_capped_in_lexicographic_order(
        self, monkeypatch, in_process_pool, jobs
    ):
        # Every diagram but the identity's is nonempty, so 719 builds fail.
        monkeypatch.setattr(oracle, "build_from_row_counts", lambda code: Diagram())
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        report = verify_lehmer_bijection(6, jobs=jobs)
        rest = islice(reference.lex_permutations(6), 1, 1 + oracle.COUNTEREXAMPLE_CAP)
        assert report.failures == tuple({"permutation": str(w), "stage": "build"} for w in rest)
        assert (report.checked, report.failure_total) == (720, 719)
        assert in_process_pool == ([2] if jobs == 2 else [])

    def test_reports_identical_across_processes(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for sweep, bound in [
            (verify_characterizations, (3, 3)),
            (verify_lehmer_bijection, (6,)),
            (verify_rothe_properties, (6,)),
        ]:
            single = sweep(*bound, jobs=1)
            split = sweep(*bound, jobs=2)
            assert _without_elapsed(single) == _without_elapsed(split)


def test_verify_at_one_job_loads_no_process_pool():
    probe = """
import contextlib, io, sys
import rothe.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = rothe.cli.main(["verify", "--jobs", "1"])
loaded = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
print(code, loaded)
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.stdout.strip() == "0 []", done.stderr
