"""Mutation checks: break the package on purpose and see that the tests notice.

Each mutant names a file, an exact text that occurs once in it, the text
that replaces it, the tests to run and the outcome expected.  The script
copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary directory,
first runs every named test there unchanged, then applies one mutant at a
time to a fresh copy and runs its tests.  A mutant is *killed* when its
tests fail, *survived* when they pass, and *stale* when its old text no
longer occurs exactly once, so that it checks nothing.

The exit code is 0 when every mutant has its expected outcome, 1 when one
does not (a stale mutant never does), and 2 when the tests fail on the
unchanged copy.  Pytest does not collect this file.  Run from the
repository root:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 2 5      # mutants 2 and 5 only
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 240


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    expect: str = "killed"


CORE = "src/rothe/core.py"
CLI = "src/rothe/cli.py"
RECONSTRUCT = "src/rothe/reconstruct.py"
RULES = "src/rothe/rules.py"
ORACLE = "src/rothe/oracle.py"
SHARED = ("tests/test_shared_analysis.py",)
CLI_USAGE = ("tests/test_byte_identity.py::test_cli_usage",)
CORE_TYPES = ("tests/test_core.py::TestDiagramType", "tests/test_core.py::TestPermutation")
CODE_TESTS = (
    "tests/test_core.py::TestLehmerCode",
    "tests/test_reconstruct.py::TestBuildFromRowCounts",
)
CHECK_PATH = ("tests/test_check_path.py",)
MERGE = (
    "tests/test_sweep_kernel.py::test_capped_counterexamples_do_not_depend_on_jobs",
    "tests/test_oracle.py::TestMerge",
)

MUTANTS = (
    Mutant(
        "from_cells truncates with int()",
        CORE,
        "return cls(frozenset(map(tuple, cells)))",
        "return cls(frozenset((int(r), int(c)) for r, c in cells))",
        CORE_TYPES,
    ),
    Mutant(
        "from_word trims letters that are not exact ints",
        CORE,
        "while end and word[end - 1] == end and type(word[end - 1]) is int:",
        "while end and word[end - 1] == end:",
        CORE_TYPES,
    ),
    Mutant(
        "from_counts trims counts that are not exact ints",
        CORE,
        "while end and counts[end - 1] == 0 and type(counts[end - 1]) is int:",
        "while end and counts[end - 1] == 0:",
        CODE_TESTS,
    ),
    Mutant(
        "Diagram.from_json_obj lets duplicate cells through",
        CORE,
        '''        if len(cells) != len(raw):
            raise ValueError("duplicate cells in diagram JSON")
''',
        "",
        ("tests/test_core.py::TestDiagramType", "tests/test_cli.py::TestCheckCommand"),
    ),
    Mutant(
        "FreeColumns takes int subclasses again",
        RECONSTRUCT,
        "if type(row) is not int or row < 1:",
        "if not isinstance(row, int) or isinstance(row, bool) or row < 1:",
        ("tests/test_reconstruct.py::TestReconstructTypes",),
    ),
    Mutant(
        "Diagram takes a non-int row",
        CORE,
        "                and type(cell[0]) is int\n",
        "",
        CORE_TYPES,
    ),
    Mutant(
        "the narrowed parser lists only its own subcommand in the usage line",
        CLI,
        'metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"',
        "metavar = None",
        CLI_USAGE,
    ),
    Mutant(
        "main narrows the parser to any argv[0]",
        CLI,
        "command = argv[0] if argv and argv[0] in _COMMANDS else None",
        "command = argv[0] if argv else None",
        CLI_USAGE,
    ),
    Mutant(
        "Diagram.from_json_obj ignores unknown keys",
        CORE,
        '''        if unknown := [key for key in obj if key != "cells"]:
            raise ValueError(f"diagram JSON has an unknown key: {unknown[0]!r}")
''',
        "",
        ("tests/test_core.py::TestDiagramType", "tests/test_cli.py::TestCheckCommand"),
    ),
    Mutant(
        "LehmerCode.from_json_obj ignores unknown keys",
        CORE,
        '''        if unknown := [key for key in obj if key != "counts"]:
            raise ValueError(f"code JSON has an unknown key: {unknown[0]!r}")
''',
        "",
        ("tests/test_core.py::TestDiagramType",),
    ),
    Mutant(
        "FreeColumns.from_json_obj lets a repeated row through",
        RECONSTRUCT,
        '''            if len(sets[-1]) != len(col):
                raise ValueError(f"column {index} repeats a row")
''',
        "",
        ("tests/test_reconstruct.py::TestReconstructTypes", "tests/test_cli.py::TestPlaceCommand"),
    ),
    Mutant(
        "the step-out sweep counts a cell in the same column as a step-out",
        RULES,
        "        if col > least:\n",
        "        if col >= least:\n",
        ("tests/test_rules.py::TestStepOuts",),
    ),
    Mutant(
        "the numbering mismatch ranks each column's bubbles from one, not zero",
        CORE,
        "n = below.get(c, 0)",
        "n = below.get(c, 1)",
        SHARED,
    ),
    Mutant(
        "the transpose keeps its column keys in first-seen order",
        CORE,
        "index = {c: tuple(columns[c]) for c in sorted(columns)}",
        "index = {c: tuple(columns[c]) for c in columns}",
        SHARED,
    ),
    Mutant(
        "Diagram.from_json_obj builds cells below 1 without the constructor's check",
        CORE,
        """            if entry[0] < 1 or entry[1] < 1:
                low = True
""",
        "",
        CHECK_PATH + ("tests/test_core.py::TestDiagramType",),
    ),
    Mutant(
        "the report serialiser writes a cell pair in reverse",
        RULES,
        "listed = [[[*a], [*b]] for a, b in self.witnesses]",
        "listed = [[[*b], [*a]] for a, b in self.witnesses]",
        CHECK_PATH,
    ),
    Mutant(
        "vertical popping leaves its witnesses in column order",
        RULES,
        'return RuleReport("vertical_popping", tuple(sorted(witnesses)))',
        'return RuleReport("vertical_popping", tuple(witnesses))',
        CHECK_PATH,
    ),
    Mutant(
        "the sweep merge keeps every span's entries, uncapped",
        ORACLE,
        "joined[:COUNTEREXAMPLE_CAP]",
        "joined",
        MERGE,
    ),
    Mutant(
        "the sweep merge sorts the joined entries by cells before it caps",
        ORACLE,
        "return summed, joined[:COUNTEREXAMPLE_CAP],",
        'return summed, sorted(joined, key=lambda e: e.get("cells", []))[:COUNTEREXAMPLE_CAP],',
        MERGE,
    ),
    Mutant(
        "the sweep driver clamps jobs to the CPU count only, not to the span count",
        ORACLE,
        "jobs = min(jobs, os.cpu_count() or 1, len(spans))",
        "jobs = min(jobs, os.cpu_count() or 1)",
        ("tests/test_oracle.py::TestJobsClamp",),
    ),
    # Equivalent: a column's dot sits right of its row's bubbles, so no bubble
    # of the column lies on the dot's row and both bisections cut the same place.
    Mutant(
        "popping slices a column's rows from bisect_left of the dot row",
        RULES,
        "for r in rows[bisect_right(rows, dot) :]",
        "for r in rows[bisect_left(rows, dot) :]",
        CHECK_PATH + ("tests/test_dot_pieces.py",),
        expect="survived",
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def tests_pass(tree: Path, tests: tuple[str, ...]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def outcome(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="rothe-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return "survived" if tests_pass(tree, mutant.tests) else "killed"


def main(argv: list[str]) -> int:
    chosen = [MUTANTS[int(arg) - 1] for arg in argv] if argv else list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="rothe-mutant-") as tmp:
        copy_tree(Path(tmp))
        every_test = tuple(dict.fromkeys(test for m in chosen for test in m.tests))
        if not tests_pass(Path(tmp), every_test):
            print("the tests fail on the unchanged tree; no mutant was run", file=sys.stderr)
            return 2
    wrong = 0
    for mutant in chosen:
        start = time.perf_counter()
        got = outcome(mutant)
        mark = "ok" if got == mutant.expect else f"EXPECTED {mutant.expect.upper()}"
        wrong += got != mutant.expect
        number = MUTANTS.index(mutant) + 1
        seconds = time.perf_counter() - start
        print(f"{number}. {mutant.name}: {got} ({seconds:.1f} s) {mark}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
