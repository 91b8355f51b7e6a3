"""Tests of the benchmark itself: reference computations, inputs, checks, tracing.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py -q

No test reads a clock: each one checks values, never speed.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, check, decode_lehmer, inversion_set, is_rothe  # noqa: E402

CLI = run.import_program()
RUNNING_CODE = (0, 3, 0, 4, 2, 3)
RUNNING_CELLS = {
    (2, 2), (2, 3), (2, 4), (4, 3), (4, 4), (4, 6),
    (4, 7), (5, 3), (5, 4), (6, 3), (6, 4), (6, 7),
}


def outputs(op: Op) -> tuple[int, str]:
    code, out, _ = run.invoke(CLI, op)
    return code, out


def problems(op: Op, code: int, out: str) -> list[str]:
    return check(op, code, out)[1]


def cheap_ops(workload: str) -> list[Op]:
    """The smallest operations of one round of ``workload``, seed 3."""
    ops = workloads.build(workload, 3)
    if workload == "sweep":
        return [op for op in ops if op.expect["rows"] * op.expect["cols"] <= 6]
    if workload == "check-dense":
        return [op for op in ops if op.expect["label"].startswith("S_24 ")]
    if workload == "check-sparse":
        return [op for op in ops if op.expect["label"].startswith("prefix 100")]
    return ops


# --- reference computations -----------------------------------------------------


def test_decode_running_example():
    assert decode_lehmer(RUNNING_CODE) == (1, 5, 2, 8, 6, 9, 3, 4, 7)
    assert inversion_set(decode_lehmer(RUNNING_CODE)) == RUNNING_CELLS
    assert decode_lehmer([0, 0]) == ()


def test_is_rothe():
    assert is_rothe(RUNNING_CELLS)
    assert is_rothe(set())
    assert is_rothe({(1, 1), (2, 1)})
    assert not is_rothe({(1, 2), (2, 1)})
    assert not is_rothe(RUNNING_CELLS - {(4, 4)})


@pytest.mark.parametrize("rows, cols, count", [(2, 2, 7), (3, 3, 34), (3, 4, 73), (4, 4, 209)])
def test_fitting_count(rows, cols, count):
    assert workloads.fitting_count(rows, cols) == count


def test_fitting_count_matches_brute_force():
    """Count the 3x3 case again over all of S_6 straight from the definition."""
    fits = {
        inversion_set(word)
        for word in itertools.permutations(range(1, 7))
        if all(r <= 3 and c <= 3 for r, c in inversion_set(word))
    }
    assert len(fits) == workloads.fitting_count(3, 3)


def test_random_code_hits_its_total():
    rng = workloads.random.Random(0)
    for n, total in workloads.DENSE_SHAPES:
        code = workloads.random_code(rng, n, total)
        assert sum(code) == total
        assert len(inversion_set(decode_lehmer(code))) == total


def test_unplaceable_has_no_rothe_placement():
    """Every altered collection of every permutation of 5 letters, tried at all positions."""
    rng = workloads.random.Random(0)
    for word in itertools.permutations(range(1, 6)):
        columns = [rows for _, rows in workloads._columns(inversion_set(word))]
        if not columns:
            continue
        altered = workloads._unplaceable(rng, columns)
        for positions in itertools.combinations(range(1, 11), len(altered)):
            cells = {(r, p) for p, col in zip(positions, altered) for r in col}
            assert not is_rothe(cells), (word, altered, positions)


# --- inputs -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    first = workloads.build(workload, 7)
    again = workloads.build(workload, 7)
    assert [(op.argv, op.stdin) for op in first] == [(op.argv, op.stdin) for op in again]
    other = workloads.build(workload, 8)
    assert [(op.argv, op.stdin) for op in first] != [(op.argv, op.stdin) for op in other]


def test_variants_are_not_rothe():
    for workload in ("check-dense", "check-sparse"):
        ops = workloads.build(workload, 5)
        assert sum(op.expect["rothe"] for op in ops) == len(ops) // 3


# --- checks pass on the program and catch wrong outputs ---------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_program_outputs_pass(workload):
    for op in cheap_ops(workload):
        assert problems(op, *outputs(op)) == [], op.argv


def test_sweep_catches_a_wrong_count():
    op = cheap_ops("sweep")[0]
    code, out = outputs(op)
    report = json.loads(out)
    report["characterizations"]["counts"]["dot_southwest"] += 1
    assert problems(op, code, json.dumps(report))
    report = json.loads(out)
    report["properties"]["checked"] -= 1
    assert problems(op, code, json.dumps(report))
    assert problems(op, 1, out)


@pytest.mark.parametrize("workload", ["check-dense", "check-sparse"])
def test_check_catches_a_flipped_exit_code(workload):
    for op in cheap_ops(workload):
        code, out = outputs(op)
        assert problems(op, 1 - code, out), op.expect["label"]


def test_check_catches_wrong_verdicts_and_witnesses():
    ops = cheap_ops("check-dense")
    rothe_op = next(op for op in ops if op.expect["rothe"])
    other_op = next(op for op in ops if not op.expect["rothe"])
    # The reports of a Rothe diagram given for a diagram that is not one.
    assert problems(other_op, 1, outputs(rothe_op)[1])
    code, out = outputs(other_op)
    reports = json.loads(out)
    southwest = next(r for r in reports if r["rule"] == "southwest")
    cell = sorted(other_op.expect["cells"])[0]
    southwest.update(holds=False, witnesses=[[list(cell), list(cell)]])
    assert problems(other_op, code, json.dumps(reports))
    for report in reports:
        report.update(holds=True, witnesses=[])
    assert problems(other_op, code, json.dumps(reports))


def test_rebuild_catches_wrong_builds_and_placements():
    ops = cheap_ops("rebuild")
    build = next(op for op in ops if op.kind == "build" and len(op.expect["cells"]) > 2)
    code, out = outputs(build)
    cells_line, text = out.splitlines()
    assert problems(build, code, f"{cells_line}\n1\n")
    fewer = json.dumps({"cells": json.loads(cells_line)["cells"][1:]})
    assert problems(build, code, f"{fewer}\n{text}\n")

    exact = next(op for op in ops if op.kind == "place" and "positions" in op.expect)
    code, out = outputs(exact)
    positions, diagram = out.splitlines()
    misplaced = json.loads(positions)["positions"]
    misplaced[-1] += 1
    assert problems(exact, code, f"{json.dumps({'positions': misplaced})}\n{diagram}\n")
    assert problems(exact, 1, out)

    altered = next(op for op in ops if op.kind == "place" and "positions" not in op.expect)
    assert problems(altered, *outputs(altered)) == []
    # A placement that drops the added column is not a placement of the collection.
    assert problems(altered, 0, out)


def test_a_crash_is_a_failed_operation():
    class Crashing:
        @staticmethod
        def main(argv):
            raise RecursionError("deep")

    phase = run.Phase(2)
    with pytest.raises(run.BenchError):
        run.run_round(Crashing, cheap_ops("rebuild")[:2], phase)
    assert (phase.attempted, phase.failed, phase.problems) == (2, 2, [])


# --- tracing ----------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    import rothe
    from rothe import cli, oracle, rules

    original = rules.condition_verdicts
    tracer = spans.Tracer()
    assert tracer.install() == []
    try:
        assert oracle.condition_verdicts is rules.condition_verdicts is rothe.condition_verdicts
        assert rules.condition_verdicts is not original
        op = Op("check", ("check", "-"), json.dumps({"cells": sorted(RUNNING_CELLS)}))
        code, out, _ = run.invoke(cli, op)
    finally:
        tracer.uninstall()
    assert code == 0
    assert rules.condition_verdicts is original is oracle.condition_verdicts
    totals = tracer.layer_totals()
    assert set(totals) == set(spans.LAYER_NAMES)
    assert totals["cli.main"][0] == 1
    assert totals["rules.classify"][0] == 1
    assert totals["core.Diagram.from_json_obj"][0] == 1
    root = tracer._span_end[0] - tracer._span_start[0]
    assert sum(self_s for _, self_s in totals.values()) == pytest.approx(root)


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    expected = {f"{n}.{k}" for n in spans.LAYER_NAMES for k in ("calls_per_item", "self_us_per_item")}
    assert names == expected | {"trace.overhead_us_per_item", "trace.overhead_pct"}


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(trace, capsys):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    argv = ["--workload", "rebuild", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rebuild", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
