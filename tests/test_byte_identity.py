"""Byte-identity gate: SHA-256 digests of the program's output, frozen.

Each digest covers the exact bytes a user sees: the ``classify`` report
JSON and the five verdicts over a fixed input set, or the stdout (with
stderr for most commands) and exit code of a CLI call.  A refactor that
changes a verdict, a witness, its order or its JSON encoding fails here;
the digests change only with a deliberate change of output.  Timings are removed before
hashing.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations

import pytest

from rothe import (
    Diagram,
    Permutation,
    classify,
    condition_verdicts,
    recover_permutation,
    rothe_diagram,
)
from rothe.cli import main

from goldens import FREE_COLUMNS, RUNNING_CELLS

# Six-cell block after a fixed identity prefix, as in the sparse benchmark:
# the block 423165 has six inversions, shifted past the first 300 letters.
SPARSE_PREFIX = 300
SPARSE_BLOCK = (4, 2, 3, 1, 6, 5)

# Letters of the seeded random permutations whose diagrams have 103, 297 and
# 606 cells.  Large failing variants of them are where a faster witness
# enumeration could reorder its output.
LARGE_SIZES = (21, 37, 47)

# Fixed identity prefixes before a seeded six-letter block: the words whose
# inversions a scan over all position pairs pays for quadratically.
KERNEL_PREFIXES = (100, 550, 1000)

SUBCOMMANDS = ("diagram", "lehmer", "unlehmer", "check", "build", "place", "verify", "render")

DIGESTS = {
    "classify_3x3": "933c4b4b25978d638ce33b3cba6d5f426c01295dd8bea9a133286d8691178139",
    "classify_s6": "d090e1aa0b598203de66bbebd313e03834c2159fffe7fdc87417b0f5a585dcc1",
    "classify_large": "60f4d52704dc6915f53ee34644170751c97529153de34933d8faf3e5f325ff90",
    "classify_far_out": "3e04d02be56b8a140c1f4bf6c56e0c42b6d823a485d8a15b47a7390b687bed6f",
    "verify_default": "0c6ea707f34e833da37760612e12346d66eec4f9a1c24bc8a81c681108a2105e",
    "place": "f50cc3aa7256515f976de4d670c6e05da42a1e3c9374a427780b67f778f10922",
    "check_rules": "4c96911fb816b94dbeb78577fac3362960d204bbf67619822e4f34201fcb3354",
    "diagram_lehmer_s7": "acd31b9420302e0683d3fec2d1805b497a4a0eb97991e0498f948788e32c5ef7",
    "diagram_lehmer_far_out": "b8b7cd134f589f8d12191ef1e73c9ba81d670bb73a8a41cdb3a3b1e749a9f81f",
    "build_rows": "d30f30722346342cc5be0ec2f78e9efa18bf5c3aa2ad2ad0c2758ca3002e7fc2",
    "cli_usage": "671f0c2616989ad3fc1fb650dc0a77f1688532cf2151df57171a24bb5ea3972d",
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _classify_line(diagram: Diagram) -> str:
    reports = [report.to_json_obj() for report in classify(diagram)]
    return json.dumps([reports, condition_verdicts(diagram)], sort_keys=True)


def _cli(argv, stdin_text: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _cli_line(argv, stdin_text: str = "") -> str:
    return json.dumps([list(argv), stdin_text, *_cli(argv, stdin_text)])


def _cells_json(cells) -> str:
    return json.dumps({"cells": [list(c) for c in sorted(cells)]})


def _far_out_diagrams() -> list[Diagram]:
    word = tuple(range(1, SPARSE_PREFIX + 1)) + tuple(SPARSE_PREFIX + v for v in SPARSE_BLOCK)
    sparse = rothe_diagram(Permutation.from_word(word)).cells
    lowest = min(sparse)
    return [
        Diagram.from_cells([(500, 1)]),
        Diagram.from_cells([(1, 500)]),
        Diagram.from_cells([(250, 250)]),
        Diagram(sparse),
        Diagram(sparse - {lowest}),
        Diagram(sparse | {(SPARSE_PREFIX + 1, SPARSE_PREFIX + 6)}),
    ]


def _large_diagrams() -> list[Diagram]:
    """Each seeded diagram, then it with one cell removed and one added.

    Both variants are chosen so that they are not Rothe diagrams; the added
    cell lies inside the bounding box.
    """
    diagrams = []
    for n in LARGE_SIZES:
        rng = random.Random(f"byte-identity:{n}")
        word = list(range(1, n + 1))
        rng.shuffle(word)
        cells = rothe_diagram(Permutation.from_word(word)).cells
        order = sorted(cells)
        rng.shuffle(order)
        removed = next(
            cells - {c} for c in order if recover_permutation(Diagram(cells - {c})) is None
        )
        top, right = max(r for r, _ in cells), max(c for _, c in cells)
        while True:
            cell = (rng.randint(1, top), rng.randint(1, right))
            if cell not in cells and recover_permutation(Diagram(cells | {cell})) is None:
                break
        diagrams += [Diagram(cells), Diagram(removed), Diagram(cells | {cell})]
    return diagrams


def _columns_of(cells) -> list[list[int]]:
    by_col: dict[int, list[int]] = {}
    for r, c in sorted(cells):
        by_col.setdefault(c, []).append(r)
    return [rows for _, rows in sorted(by_col.items())]


def test_classify_3x3_grid():
    positions = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    lines = [
        _classify_line(
            Diagram(frozenset(p for bit, p in enumerate(positions) if mask >> bit & 1))
        )
        for mask in range(1 << len(positions))
    ]
    assert _digest(lines) == DIGESTS["classify_3x3"]


def test_classify_s6():
    lines = [
        _classify_line(rothe_diagram(Permutation.from_word(word)))
        for word in permutations(range(1, 7))
    ]
    assert _digest(lines) == DIGESTS["classify_s6"]


def test_classify_far_out_cells():
    lines = [_classify_line(diagram) for diagram in _far_out_diagrams()]
    assert _digest(lines) == DIGESTS["classify_far_out"]


def test_classify_large_diagrams():
    lines = [_classify_line(diagram) for diagram in _large_diagrams()]
    assert _digest(lines) == DIGESTS["classify_large"]


def test_verify_default_json():
    code, out, err = _cli(["verify"])
    combined = json.loads(out)
    for section in combined.values():
        del section["elapsed_ms"]
    line = json.dumps([code, combined, err], sort_keys=True)
    assert _digest([line]) == DIGESTS["verify_default"]


def test_place_output():
    collections = [
        [sorted(col) for col in FREE_COLUMNS],
        [],
        [[1, 2]],
        [[1, 3]],
        [[2], [1, 2]],
        [[1], [1], [1, 2]],
        [[1], [2]],
        _columns_of(RUNNING_CELLS),
    ]
    for word in permutations(range(1, 6)):
        columns = _columns_of(rothe_diagram(Permutation.from_word(word)).cells)
        collections.append(columns)
        if columns:
            collections.append(columns[:-1] + [[r + 1 for r in columns[-1]]])
    lines = [
        _cli_line(["place", "-"], json.dumps({"columns": columns}))
        for columns in collections
    ]
    assert _digest(lines) == DIGESTS["place"]


def test_check_rules_output():
    passing = _cells_json(RUNNING_CELLS)
    crossed = _cells_json({(1, 2), (2, 1)})
    lines = [
        _cli_line(["check", "-", "--rules", "dot,numbering"], passing),
        _cli_line(["check", "-", "--rules", "dot,numbering"], crossed),
        _cli_line(["check", "-", "--rules", " dot, ,step_out"], passing),
        _cli_line(["check", "-", "--rules", "step_out"], crossed),
        _cli_line(["check", "-", "--rules", "bogus"], passing),
        _cli_line(["check", "-", "--rules", "dot,bogus"], crossed),
        _cli_line(["check", "-", "--rules", ""], crossed),
        _cli_line(
            [
                "check",
                "-",
                "--rules",
                "southwest,dot,vertical_popping,horizontal_popping,"
                "numbering,step_out,empty_cell_gap,is_rothe",
            ],
            passing,
        ),
        _cli_line(["check", "-"], crossed),
    ]
    assert _digest(lines) == DIGESTS["check_rules"]


def _exit_and_stdout(argv) -> str:
    code, out, _ = _cli(argv)
    return json.dumps([list(argv), code, out])


def test_diagram_and_lehmer_s7():
    lines = [
        _exit_and_stdout([command, "".join(map(str, word))])
        for word in permutations(range(1, 8))
        for command in ("diagram", "lehmer")
    ]
    assert _digest(lines) == DIGESTS["diagram_lehmer_s7"]


def test_diagram_and_lehmer_far_out():
    lines = []
    for prefix in KERNEL_PREFIXES:
        block = list(range(1, 7))
        random.Random(f"byte-identity:block:{prefix}").shuffle(block)
        word = [*range(1, prefix + 1), *(prefix + v for v in block)]
        for command in ("diagram", "lehmer"):
            lines.append(_exit_and_stdout([command, *map(str, word)]))
    assert _digest(lines) == DIGESTS["diagram_lehmer_far_out"]


def test_build_rows_seeded():
    rng = random.Random("byte-identity:build")
    lines = []
    for _ in range(20):
        length = rng.randint(1, 30)
        counts = [rng.randint(0, length) for _ in range(length)]
        lines.append(_exit_and_stdout(["build", "--rows", ",".join(map(str, counts))]))
    assert _digest(lines) == DIGESTS["build_rows"]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse words its help and errors differently across Python versions; pinned on 3.11",
)
def test_cli_usage(monkeypatch):
    """Help, usage lines and argument errors, as argparse prints them 80 columns wide."""
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [[], ["-h"], ["--help"], ["bogus"], ["-x"], ["--", "check"]]
    for command in SUBCOMMANDS:
        argvs += [[command, "-h"], [command, "x", "y", "--zzz"]]
        # Bare `verify` runs the default sweep, which verify_default pins.
        if command != "verify":
            argvs.append([command])
    argvs += [["verify", "--n", "x"], ["verify", "--jobs", "1_0"], ["build", "--ro", "1"]]
    lines = [_cli_line(argv) for argv in argvs]
    assert _digest(lines) == DIGESTS["cli_usage"]
