"""Inputs, reference computations and output checks for the four workloads.

Nothing here imports ``rothe``.  Every expected value comes from the
definitions themselves: a Lehmer code decodes by picking the (a_i + 1)-th
smallest unused value, and a permutation's diagram is its inversion set
{(i, w_j) : i < j, w_i > w_j}.  A wrong program output therefore cannot
agree with a wrong expectation through shared code.

Each workload is a list of :class:`Op`, one ``rothe`` command line each.
A run repeats the whole list, so every run attempts whole rounds of the
same operations.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "check-dense", "check-sparse", "rebuild")

# (rows, cols, n) of each `rothe verify --large` call in a sweep round.  The
# 4x4 grid and n=8 are left out: each alone takes about 20 s, longer than a
# run.  n=7 (2.5 s) is left out too, so that a round stays near 3 s and each
# call is timed several times in a run.  The count of calls is odd, so that
# the median call is one call, not the gap between two.
SWEEP_BOUNDS = (
    (2, 2, 3),
    (2, 3, 4),
    (3, 2, 4),
    (1, 4, 5),
    (4, 2, 5),
    (2, 4, 5),
    (3, 3, 6),
    (2, 5, 6),
    (3, 4, 6),
)

# (n, cells) of each dense diagram: a permutation of n letters with exactly
# that many inversions, so that the cost of a round does not drift with the
# seed.  The cell counts run from about 100 to about 1,800.  With five sizes
# and three calls each, the median call falls inside the middle size.
DENSE_SHAPES = ((24, 100), (36, 300), (48, 600), (64, 1000), (84, 1780))

# Length of the fixed prefix before the shuffled block of each sparse
# diagram; the block has SPARSE_BLOCK letters and SPARSE_CELLS inversions.
# Five prefixes, for the same reason as the five dense sizes.
SPARSE_PREFIXES = (100, 200, 350, 550, 1000)
SPARSE_BLOCK = 6
SPARSE_CELLS = 6

# Sizes of the rebuild permutations; each has n(n-1)/4 inversions, half the
# maximum, as a random permutation has on average.
REBUILD_SIZES = (4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40)

RULES = (
    "southwest",
    "dot",
    "vertical_popping",
    "horizontal_popping",
    "numbering",
    "step_out",
    "empty_cell_gap",
    "is_rothe",
)

Cell = tuple[int, int]


# --- reference computations -------------------------------------------------


def decode_lehmer(counts) -> tuple[int, ...]:
    """The canonical one-line word whose Lehmer code is ``counts``."""
    counts = list(counts)
    if not counts:
        return ()
    available = list(range(1, len(counts) + max(counts) + 2))
    word = [available.pop(a) for a in counts] + available
    while word and word[-1] == len(word):
        word.pop()
    return tuple(word)


def inversion_set(word) -> frozenset[Cell]:
    """The Rothe diagram by definition: one cell (i, w_j) per inversion."""
    return frozenset(
        (i, v) for i, w in enumerate(word, 1) for v in word[i:] if v < w
    )


def is_rothe(cells) -> bool:
    """Decode the row counts and compare the decoded diagram with ``cells``."""
    cells = frozenset(cells)
    top = max((r for r, _ in cells), default=0)
    counts = [0] * top
    for r, _ in cells:
        counts[r - 1] += 1
    return inversion_set(decode_lehmer(counts)) == cells


def fitting_count(rows: int, cols: int) -> int:
    """Permutations whose diagram fits the rows x cols box.

    Such a permutation has a Lehmer code of length at most ``rows`` with
    entries at most ``cols``; decode each such code and keep the diagrams
    that fit.
    """
    return sum(
        1
        for code in itertools.product(range(cols + 1), repeat=rows)
        if all(r <= rows and c <= cols for r, c in inversion_set(decode_lehmer(code)))
    )


def format_permutation(word) -> str:
    """One-line notation as the CLI prints it: digits run together when all fit."""
    if not word:
        return "1"
    sep = "" if max(word) <= 9 else " "
    return sep.join(str(v) for v in word)


def random_code(rng: random.Random, n: int, total: int) -> list[int]:
    """A random Lehmer code of a permutation of n letters with ``total`` inversions."""
    caps = [n - i for i in range(1, n + 1)]
    if not 0 <= total <= sum(caps):
        raise ValueError(f"no permutation of {n} letters has {total} inversions")
    code = [rng.randint(0, cap) for cap in caps]
    excess = sum(code) - total
    while excess:
        i = rng.randrange(n)
        if excess < 0 and code[i] < caps[i]:
            code[i] += 1
            excess += 1
        elif excess > 0 and code[i] > 0:
            code[i] -= 1
            excess -= 1
    return code


# --- operations -------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, its stdin and what the benchmark expects of it."""

    kind: str
    argv: tuple[str, ...]
    stdin: str = ""
    expect: dict = field(default_factory=dict)


def _check_op(cells, label: str) -> Op:
    cells = frozenset(cells)
    return Op(
        "check",
        ("check", "-"),
        json.dumps({"cells": [list(c) for c in sorted(cells)]}),
        {"cells": cells, "rothe": is_rothe(cells), "label": label},
    )


def _check_ops(rng: random.Random, cells: frozenset[Cell], label: str) -> list[Op]:
    """The diagram, and its variants with one cell removed and one cell added.

    Neither variant is a Rothe diagram.  The added cell lies inside the
    bounding box, so the largest coordinate, which sets the dot horizon,
    does not change.
    """
    removable = sorted(cells)
    rng.shuffle(removable)
    removed = next(cells - {c} for c in removable if not is_rothe(cells - {c}))
    top = max(r for r, _ in cells)
    right = max(c for _, c in cells)
    while True:
        cell = (rng.randint(1, top), rng.randint(1, right))
        if cell not in cells and not is_rothe(cells | {cell}):
            break
    return [
        _check_op(cells, label),
        _check_op(removed, f"{label}, one removed"),
        _check_op(cells | {cell}, f"{label}, one added"),
    ]


def sweep_ops(seed: int) -> list[Op]:
    bounds = list(SWEEP_BOUNDS)
    random.Random(f"sweep:{seed}").shuffle(bounds)
    return [
        Op(
            "verify",
            ("verify", "--large", "--jobs", "1", "--grid", f"{r}x{c}", "--n", str(n)),
            expect={"rows": r, "cols": c, "n": n, "fits": fitting_count(r, c)},
        )
        for r, c, n in bounds
    ]


def check_dense_ops(seed: int) -> list[Op]:
    rng = random.Random(f"check-dense:{seed}")
    ops = []
    for n, total in DENSE_SHAPES:
        cells = inversion_set(decode_lehmer(random_code(rng, n, total)))
        ops += _check_ops(rng, cells, f"S_{n} {total} cells")
    rng.shuffle(ops)
    return ops


def check_sparse_ops(seed: int) -> list[Op]:
    rng = random.Random(f"check-sparse:{seed}")
    ops = []
    for prefix in SPARSE_PREFIXES:
        block = decode_lehmer(random_code(rng, SPARSE_BLOCK, SPARSE_CELLS))
        block += tuple(range(len(block) + 1, SPARSE_BLOCK + 1))
        word = tuple(range(1, prefix + 1)) + tuple(prefix + v for v in block)
        ops += _check_ops(rng, inversion_set(word), f"prefix {prefix}")
    rng.shuffle(ops)
    return ops


def _columns(cells) -> list[tuple[int, list[int]]]:
    """(column, sorted rows) for every occupied column, left to right."""
    by_col: dict[int, list[int]] = {}
    for r, c in sorted(cells):
        by_col.setdefault(c, []).append(r)
    return sorted(by_col.items())


def _unplaceable(rng: random.Random, columns: list[list[int]]) -> list[list[int]]:
    """Alter a collection so that no placement of it is a Rothe diagram.

    Rothe diagrams are closed under southwest corners, so for columns A left
    of B every row of B below max(A) is also a row of A, whatever the
    positions.  Add a column that breaks this.
    """
    gapped = [
        (col, [b for b in range(1, max(col)) if b not in col])
        for col in columns
    ]
    gapped = [(col, gaps) for col, gaps in gapped if gaps]
    if gapped:
        _, gaps = rng.choice(gapped)
        return columns + [[rng.choice(gaps)]]
    # Every column is 1..m, so the first holds row 1, below a new left column {2}.
    return [[2]] + columns


def rebuild_ops(seed: int) -> list[Op]:
    rng = random.Random(f"rebuild:{seed}")
    ops = []
    for n in REBUILD_SIZES:
        code = random_code(rng, n, n * (n - 1) // 4)
        word = decode_lehmer(code)
        cells = inversion_set(word)
        ops.append(
            Op(
                "build",
                ("build", "--rows", ",".join(map(str, code))),
                expect={"cells": cells, "text": format_permutation(word)},
            )
        )
        placed = _columns(cells)
        columns = [rows for _, rows in placed]
        ops.append(
            Op(
                "place",
                ("place", "-"),
                json.dumps({"columns": columns}),
                {"columns": columns, "positions": [c for c, _ in placed], "cells": cells},
            )
        )
        altered = _unplaceable(rng, columns)
        ops.append(
            Op("place", ("place", "-"), json.dumps({"columns": altered}), {"columns": altered})
        )
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "sweep": sweep_ops,
    "check-dense": check_dense_ops,
    "check-sparse": check_sparse_ops,
    "rebuild": rebuild_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one round of ``workload`` for ``seed``."""
    return BUILDERS[workload](seed)


# --- output checks ------------------------------------------------------------
#
# Each check returns (items, problems): the work items the call completed and
# a list of readable mismatches, empty when the output is right.


def _cells_of(obj) -> frozenset[Cell]:
    return frozenset((r, c) for r, c in obj["cells"])


def _check_verify(op: Op, code: int, out: str) -> tuple[int, list[str]]:
    e = op.expect
    report = json.loads(out)
    chars, lehmer, props = report["characterizations"], report["lehmer"], report["properties"]
    items = chars["examined"] + lehmer["checked"] + props["checked"]
    problems = []
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    if chars["bounds"] != f"{e['rows']}x{e['cols']} grid":
        problems.append(f"bounds {chars['bounds']!r}")
    if chars["examined"] != 2 ** (e["rows"] * e["cols"]):
        problems.append(f"examined {chars['examined']}")
    counts = chars["counts"]
    conditions = ("rothe", "popping_gap", "numbering_dot", "dot_southwest", "numbering_stepout")
    if set(counts) != set(conditions):
        problems.append(f"condition names {sorted(counts)}")
    for name, value in counts.items():
        if value != e["fits"]:
            problems.append(f"count {name}={value}, expected {e['fits']}")
    if chars["counterexample_total"] != 0 or chars["counterexamples"]:
        problems.append(f"{chars['counterexample_total']} counterexamples")
    for label, sweep in (("lehmer", lehmer), ("properties", props)):
        if sweep["bounds"] != f"n={e['n']}" or sweep["checked"] != math.factorial(e["n"]):
            problems.append(f"{label} checked {sweep['checked']} at {sweep['bounds']!r}")
        if sweep["failure_total"] != 0 or sweep["failures"]:
            problems.append(f"{label} has {sweep['failure_total']} failures")
    return items, problems


def _check_check(op: Op, code: int, out: str) -> tuple[int, list[str]]:
    cells, rothe = op.expect["cells"], op.expect["rothe"]
    reports = json.loads(out)
    by_rule = {report["rule"]: report for report in reports}
    holds = {rule: report["holds"] for rule, report in by_rule.items()}
    problems = []
    if code != (0 if rothe else 1):
        problems.append(f"exit {code} on a {'Rothe' if rothe else 'non-Rothe'} diagram")
    for report in reports:
        if report["holds"] != (not report["witnesses"]):
            problems.append(f"{report['rule']} holds={report['holds']} with its witnesses")
    missing = set(RULES) - {"step_out"} - set(by_rule)
    if missing or not set(by_rule) <= set(RULES):
        problems.append(f"rules reported: {sorted(by_rule)}")
        return 1, problems
    if rothe:
        if set(by_rule) != set(RULES) or not all(holds.values()):
            problems.append(f"failing rules on a Rothe diagram: {sorted(r for r, h in holds.items() if not h)}")
    else:
        five = {
            "rothe": holds["is_rothe"],
            "popping_gap": holds["vertical_popping"] and holds["empty_cell_gap"],
            "numbering_dot": holds["numbering"] and holds["dot"],
            "dot_southwest": holds["dot"] and holds["southwest"],
            "numbering_stepout": holds["numbering"] and holds.get("step_out", False),
        }
        passing = sorted(name for name, ok in five.items() if ok)
        if passing:
            problems.append(f"characterizations hold on a non-Rothe diagram: {passing}")
    for a, b in by_rule["southwest"]["witnesses"]:
        a, b = tuple(a), tuple(b)
        corner = (min(a[0], b[0]), min(a[1], b[1]))
        if a not in cells or b not in cells or corner in cells or corner in (a, b):
            problems.append(f"southwest witness {[a, b]} is not a pair with a missing corner")
            break
    return 1, problems


def _check_build(op: Op, code: int, out: str) -> tuple[int, list[str]]:
    lines = out.splitlines()
    problems = []
    if code != 0 or len(lines) != 2:
        return 1, [f"exit {code} with {len(lines)} lines"]
    if _cells_of(json.loads(lines[0])) != op.expect["cells"]:
        problems.append("built diagram differs from the decoded inversion set")
    if lines[1] != op.expect["text"]:
        problems.append(f"permutation {lines[1]!r}, expected {op.expect['text']!r}")
    return 1, problems


def _check_place(op: Op, code: int, out: str) -> tuple[int, list[str]]:
    e = op.expect
    lines = out.splitlines()
    if code == 1 and "positions" not in e:
        return 1, []
    if code != 0 or len(lines) != 2:
        return 1, [f"exit {code} with {len(lines)} lines"]
    positions = json.loads(lines[0])["positions"]
    cells = _cells_of(json.loads(lines[1]))
    if "positions" in e:
        problems = []
        if positions != e["positions"]:
            problems.append(f"positions {positions}, cut from {e['positions']}")
        if cells != e["cells"]:
            problems.append("placed diagram differs from the one the columns were cut from")
        return 1, problems
    if len(positions) != len(e["columns"]) or any(b <= a for a, b in zip(positions, positions[1:])):
        return 1, [f"positions {positions} for {len(e['columns'])} columns"]
    if [rows for _, rows in _columns(cells)] != e["columns"] or [
        c for c, _ in _columns(cells)
    ] != positions:
        return 1, ["placed diagram does not hold exactly the given columns in order"]
    if not is_rothe(cells):
        return 1, ["placed diagram is not a Rothe diagram"]
    return 1, []


CHECKS = {
    "verify": _check_verify,
    "check": _check_check,
    "build": _check_build,
    "place": _check_place,
}


def check(op: Op, code: int, out: str) -> tuple[int, list[str]]:
    """Items completed by ``op`` and the problems found in its output."""
    try:
        return CHECKS[op.kind](op, code, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 1, [f"unreadable output ({type(exc).__name__}: {exc}): {out[:200]!r}"]
