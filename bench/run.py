"""Benchmark of the ``rothe`` CLI: one workload per run, one JSON line of results.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout and driven as its
users drive it: ``rothe.cli.main(argv)`` with stdin and stdout redirected,
in this process, so interpreter start-up is not timed.  The run repeats
whole rounds of the workload's operations (see ``workloads.py``) until
``--seconds`` have passed, and checks every output against the
benchmark's own computations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds traced by ``spans.py``, and prints per-layer
calls and self time per item plus the tracing overhead, the difference
between the two; the spans go to ``bench/out/spans-<workload>.tsv.gz``.
The last line of stdout is the result object.  Exit code 2 means the
benchmark could not run (for instance, ``src/rothe`` is missing).
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11

# A small first call per workload, made right after import in each set-up
# sample, so that work the program defers to its first call counts as set-up.
FIRST_CALL = {
    "sweep": (("verify", "--grid", "1x1", "--n", "1"), ""),
    "check-dense": (("check", "-"), '{"cells": [[1, 1]]}'),
    "check-sparse": (("check", "-"), '{"cells": [[1, 1]]}'),
    "rebuild": (("build", "--rows", "1"), ""),
}

SETUP_PROBE = """
import io, sys, time
from contextlib import redirect_stdout
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rothe, rothe.cli
with redirect_stdout(io.StringIO()):
    rothe.cli.main(sys.argv[2:])
sys.stderr.write(repr(time.perf_counter() - start))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_program():
    """Import ``rothe`` and ``rothe.cli`` from this checkout's ``src/``."""
    if not (SRC / "rothe" / "__init__.py").is_file():
        raise BenchError(f"no rothe package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rothe
    import rothe.cli

    if Path(rothe.__file__).resolve().parent != SRC / "rothe":
        raise BenchError(f"imported rothe from {rothe.__file__}, not from {SRC}")
    return rothe.cli


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of import time plus the first small call."""
    argv, stdin = FIRST_CALL[workload]
    samples = []
    for _ in range(SETUP_SAMPLES):
        try:
            done = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(SRC), *argv],
                input=stdin,
                capture_output=True,
                text=True,
                timeout=60,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("set-up probe took more than 60 s") from None
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stderr))
    return statistics.median(samples)


class Phase:
    """Counts, call times and problems over the rounds of one phase of a run.

    For the time per item, each operation's time is the median over rounds,
    so that a burst of load from elsewhere on the machine moves one sample
    of an operation, not the result.
    """

    def __init__(self, size: int) -> None:
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.seconds: list[list[float]] = [[] for _ in range(size)]
        self.crashes: list[str] = []
        self.problems: list[str] = []

    def op_medians(self) -> list[float]:
        """Median wall time of each operation that completed at least once."""
        return [statistics.median(samples) for samples in self.seconds if samples]

    def seconds_per_item(self) -> float:
        """One round's summed median call times over one round's items."""
        return sum(self.op_medians()) * self.rounds / self.items


def invoke(cli, op: workloads.Op) -> tuple[int, str, float]:
    """Run one CLI call; returns its exit code, stdout and wall time."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(list(op.argv))
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), elapsed


def run_round(cli, ops: list[workloads.Op], phase: Phase) -> None:
    """Run every operation once, checking each output."""
    phase.rounds += 1
    for index, op in enumerate(ops):
        phase.attempted += 1
        try:
            code, out, elapsed = invoke(cli, op)
        except Exception as exc:  # a crash of the program is a failed operation
            phase.failed += 1
            phase.crashes.append(f"{' '.join(op.argv)} raised {type(exc).__name__}: {exc}")
            continue
        items, problems = workloads.check(op, code, out)
        phase.items += items
        phase.seconds[index].append(elapsed)
        phase.problems += [f"{' '.join(op.argv)}: {p}" for p in problems]
    if not phase.items:
        raise BenchError(f"no call completed: {phase.crashes[0]}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, args, ops) -> tuple[list[Phase], dict]:
    setup = measure_setup(args.workload)
    invoke(cli, workloads.Op("warm-up", *FIRST_CALL[args.workload]))
    phase = Phase(len(ops))
    start = time.perf_counter()
    while True:
        run_round(cli, ops, phase)
        if time.perf_counter() - start >= args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calls = [t for samples in phase.seconds for t in samples]
    return [phase], {
        "setup_s": metric(setup, "s"),
        "items_per_s": metric(1 / phase.seconds_per_item(), "1/s"),
        "call_p50_ms": metric(statistics.median(calls) * 1e3, "ms"),
        "peak_rss_mib": metric(peak_kib / 1024, "MiB"),
    }


def per_layer(cli, args, ops) -> tuple[list[Phase], dict]:
    invoke(cli, workloads.Op("warm-up", *FIRST_CALL[args.workload]))
    plain, traced = Phase(len(ops)), Phase(len(ops))
    tracer = spans.Tracer()
    start = time.perf_counter()
    # Alternate untraced and traced rounds, so that drift in the machine's
    # speed does not show up as tracing overhead.
    while True:
        run_round(cli, ops, plain)
        missing = tracer.install()
        try:
            run_round(cli, ops, traced)
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    if missing:
        print(f"not found, reported as 0: {', '.join(missing)}", file=sys.stderr)
    tracer.write(OUT / f"spans-{args.workload}.tsv.gz")
    metrics = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{name}.calls_per_item"] = metric(calls / traced.items, "calls/item")
        metrics[f"{name}.self_us_per_item"] = metric(self_s * 1e6 / traced.items, "us/item")
    plain_us = plain.seconds_per_item() * 1e6
    traced_us = traced.seconds_per_item() * 1e6
    metrics["trace.overhead_us_per_item"] = metric(traced_us - plain_us, "us/item")
    metrics["trace.overhead_pct"] = metric(100 * (traced_us / plain_us - 1), "%")
    print(f"{tracer.span_count} spans over {traced.items} items", file=sys.stderr)
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_program()
        ops = workloads.build(args.workload, args.seed)
        phases, metrics = (per_layer if args.trace else end_to_end)(cli, args, ops)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = [p for phase in phases for p in phase.crashes + phase.problems]
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not any(phase.problems for phase in phases),
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
