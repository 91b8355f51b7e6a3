"""Command-line contract: exit codes, JSON round-trips, ASCII goldens."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rothe import Diagram, FreeColumns, LehmerCode, oracle
from rothe.cli import main

from goldens import (
    CELLS_231,
    FREE_PLACED_CELLS,
    RUNNING_CELLS,
    RUNNING_CODE,
    RUNNING_TEXT,
)
from test_byte_identity import _cli

# ASCII goldens, French convention (row 1 printed last).  Derived by hand
# from the greedy dot rules and the labeling procedure, then frozen.
GOLDEN_231_DOTS = "*..\no.*\no*."
GOLDEN_231_DOTS_FLIPPED = "o*.\no.*\n*.."
GOLDEN_231_BASEMENT = "#o\n#o"
GOLDEN_EMPTY = "."
GOLDEN_RUNNING_LABELS = "\n".join(
    [
        "..67..8",
        "..56...",
        "..45.67",
        ".......",
        ".234...",
        ".......",
    ]
)
GOLDEN_RUNNING_DOTS = "\n".join(
    [
        "..*......",
        "..oo..o.*",
        "..oo.*...",
        "..oo.oo*.",
        ".*.......",
        ".ooo*....",
        "*........",
    ]
)


json_leaves = st.none() | st.booleans() | st.floats() | st.text(max_size=4)
json_leaves |= st.integers(-2, 12) | st.integers(-(10**20), 10**20)
json_documents = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
row_lists = st.lists(st.lists(json_documents, max_size=3), max_size=3)
place_documents = json_documents | st.fixed_dictionaries({"columns": row_lists})


def run_cli(args, capsys, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def write_diagram(tmp_path, cells, name="diagram.json"):
    path = tmp_path / name
    path.write_text(json.dumps(Diagram(frozenset(cells)).to_json_obj()))
    return str(path)


class TestDiagramCommand:
    def test_running_example(self, capsys):
        code, out, _ = run_cli(["diagram", RUNNING_TEXT], capsys)
        assert code == 0
        assert json.loads(out)["cells"] == [list(c) for c in sorted(RUNNING_CELLS)]

    def test_identity(self, capsys):
        code, out, _ = run_cli(["diagram", "1"], capsys)
        assert code == 0
        assert out.strip() == json.dumps({"cells": []})

    def test_duplicate_value_exit_2(self, capsys):
        code, _, err = run_cli(["diagram", "2", "2", "1"], capsys)
        assert code == 2
        assert "duplicate" in err

    def test_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["diagram", "-"], capsys, stdin_text="2 3 1\n", monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["cells"] == [[1, 1], [2, 1]]

    def test_ascii_flag_appends_rendering(self, capsys):
        code, out, _ = run_cli(["diagram", "231", "--ascii"], capsys)
        assert code == 0
        first, rest = out.split("\n", 1)
        json.loads(first)
        assert rest.strip("\n") == "o\no"

    def test_json_round_trips_bit_exactly(self, capsys):
        code, out, _ = run_cli(["diagram", RUNNING_TEXT], capsys)
        line = out.strip()
        parsed = Diagram.from_json_obj(json.loads(line))
        assert json.dumps(parsed.to_json_obj(), sort_keys=True) == line


class TestLehmerCommands:
    def test_lehmer(self, capsys):
        code, out, _ = run_cli(["lehmer", RUNNING_TEXT], capsys)
        assert code == 0
        line = out.strip()
        assert json.loads(line)["counts"] == list(RUNNING_CODE)
        parsed = LehmerCode.from_json_obj(json.loads(line))
        assert json.dumps(parsed.to_json_obj(), sort_keys=True) == line

    def test_unlehmer(self, capsys):
        code, out, _ = run_cli(["unlehmer", "0,3,0,4,2,3"], capsys)
        assert code == 0
        assert out.strip() == RUNNING_TEXT

    def test_unlehmer_empty(self, capsys):
        code, out, _ = run_cli(["unlehmer", ""], capsys)
        assert code == 0
        assert out.strip() == "1"

    def test_unlehmer_rejects_negative(self, capsys):
        code, _, err = run_cli(["unlehmer", "1,-2"], capsys)
        assert code == 2
        assert err

    def test_unlehmer_rejects_non_ascii_digits(self, capsys):
        code, out, err = run_cli(["unlehmer", "\u0662\u0661"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_round_trip_through_diagram(self, capsys, monkeypatch):
        code, out, _ = run_cli(["unlehmer", "1,1"], capsys)
        code, out, _ = run_cli(
            ["diagram", "-"], capsys, stdin_text=out, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["cells"] == [[1, 1], [2, 1]]


class TestCheckCommand:
    def test_all_rules_hold(self, tmp_path, capsys):
        path = write_diagram(tmp_path, RUNNING_CELLS)
        code, out, _ = run_cli(["check", path], capsys)
        assert code == 0
        reports = json.loads(out)
        assert all(rep["holds"] for rep in reports)
        rules = [rep["rule"] for rep in reports]
        assert "is_rothe" in rules and "step_out" in rules

    def test_filtered_rules_exit_1(self, tmp_path, capsys):
        path = write_diagram(tmp_path, {(1, 2), (2, 1)})
        code, out, _ = run_cli(["check", path, "--rules", "dot,numbering"], capsys)
        assert code == 1
        reports = {rep["rule"]: rep["holds"] for rep in json.loads(out)}
        assert reports == {"dot": True, "numbering": False}

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert err

    def test_unknown_rule_exit_2(self, tmp_path, capsys):
        path = write_diagram(tmp_path, CELLS_231)
        code, _, err = run_cli(["check", path, "--rules", "bogus"], capsys)
        assert code == 2

    def test_step_out_precondition_exit_2(self, tmp_path, capsys):
        path = write_diagram(tmp_path, {(1, 2), (2, 1)})
        code, _, err = run_cli(["check", path, "--rules", "step_out"], capsys)
        assert code == 2
        assert err

    def test_stdin_diagram(self, capsys, monkeypatch):
        payload = json.dumps({"cells": [[1, 1], [2, 2]]})
        code, out, _ = run_cli(
            ["check", "-"], capsys, stdin_text=payload, monkeypatch=monkeypatch
        )
        assert code == 1
        reports = {rep["rule"]: rep["holds"] for rep in json.loads(out)}
        assert reports["numbering"] is True
        assert reports["dot"] is False

    def test_boolean_coordinates_exit_2(self, capsys, monkeypatch):
        code, out, err = run_cli(
            ["check", "-"], capsys, stdin_text='{"cells": [[true, true]]}', monkeypatch=monkeypatch
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["check", "render"])
    def test_unknown_key_exit_2(self, command, capsys, monkeypatch):
        payload = '{"cells": [[1, 1], [2, 1]], "cels": [[5, 9]]}'
        code, out, err = run_cli([command, "-"], capsys, stdin_text=payload, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == "error: diagram JSON has an unknown key: 'cels'\n"

    def test_deeply_nested_json_exit_2(self, capsys, monkeypatch):
        depth = 100_000
        code, out, err = run_cli(
            ["check", "-"], capsys, stdin_text="[" * depth + "]" * depth, monkeypatch=monkeypatch
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_witness_json_schema(self, tmp_path, capsys):
        path = write_diagram(tmp_path, {(1, 2), (2, 1)})
        code, out, _ = run_cli(["check", path], capsys)
        assert code == 1
        by_rule = {rep["rule"]: rep for rep in json.loads(out)}
        assert by_rule["southwest"]["witnesses"] == [[[1, 2], [2, 1]]]
        box = by_rule["empty_cell_gap"]["witnesses"][0]
        assert box["anchor"] == [1, 2]
        assert {"col_lo", "col_hi", "row_max", "gap_len", "finals_found"} <= set(box)


class TestBuildCommand:
    def test_running_example(self, capsys):
        code, out, _ = run_cli(["build", "--rows", "0,3,0,4,2,3"], capsys)
        assert code == 0
        first, second = out.strip().split("\n")
        assert json.loads(first)["cells"] == [list(c) for c in sorted(RUNNING_CELLS)]
        assert second == RUNNING_TEXT

    def test_empty_rows(self, capsys):
        code, out, _ = run_cli(["build", "--rows", ""], capsys)
        assert code == 0
        first, second = out.strip().split("\n")
        assert json.loads(first) == {"cells": []}
        assert second == "1"

    def test_11(self, capsys):
        code, out, _ = run_cli(["build", "--rows", "1,1"], capsys)
        first, second = out.strip().split("\n")
        assert json.loads(first)["cells"] == [[1, 1], [2, 1]]
        assert second == "231"

    @pytest.mark.parametrize("rows", ["1_0,+1", "1_0", "+1", "\u0662"])
    def test_rows_must_be_ascii_digits(self, rows, capsys):
        code, out, err = run_cli(["build", "--rows", rows], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: row count is not an integer")


class TestPlaceCommand:
    def test_worked_example(self, tmp_path, capsys):
        path = tmp_path / "cols.json"
        path.write_text(json.dumps({"columns": [[1, 2], [2, 4, 5], [2], [5]]}))
        code, out, _ = run_cli(["place", str(path)], capsys)
        assert code == 0
        first, second = out.strip().split("\n")
        assert json.loads(first) == {"positions": [1, 3, 4, 6]}
        assert json.loads(second)["cells"] == [list(c) for c in sorted(FREE_PLACED_CELLS)]

    def test_unplaceable_exit_1(self, tmp_path, capsys):
        path = tmp_path / "cols.json"
        path.write_text(json.dumps({"columns": [[1, 3]]}))
        code, out, _ = run_cli(["place", str(path)], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["rule"] == "free_numbering"
        assert report["holds"] is False

    def test_empty_collection(self, tmp_path, capsys):
        path = tmp_path / "cols.json"
        path.write_text(json.dumps({"columns": []}))
        code, out, _ = run_cli(["place", str(path)], capsys)
        assert code == 0
        first, second = out.strip().split("\n")
        assert json.loads(first) == {"positions": []}
        assert json.loads(second) == {"cells": []}

    @pytest.mark.parametrize("payload", ['{"columns": [[[1]]]}', '{"columns": [[{}]]}'])
    def test_unhashable_row_exit_2(self, payload, capsys, monkeypatch):
        code, out, err = run_cli(["place", "-"], capsys, stdin_text=payload, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith("error: column 1 has invalid row ") and err.count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(place_documents)
    def test_fuzz_json_never_crashes(self, document):
        """Any JSON document on stdin exits 0, 1 or 2, and 2 with one error line.

        ``check`` and ``render`` stay out of this test: their witness lists
        and drawings grow with the largest coordinate, so a document of a
        few bytes with a large integer can run out of memory.
        """
        code, _, err = _cli(["place", "-"], json.dumps(document))
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_small_bounds_pass(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "3", "--grid", "2x2"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["characterizations"]["counterexample_total"] == 0
        assert obj["lehmer"]["failure_total"] == 0
        assert obj["properties"]["failure_total"] == 0

    @pytest.mark.parametrize("failing", ["characterizations", "lehmer", "properties"])
    def test_any_failing_sweep_exits_1(self, failing, capsys, monkeypatch):
        patches = {
            "characterizations": ("_mask_verdicts", lambda *args: {"rothe": True, "dot": False}),
            "lehmer": ("build_from_row_counts", lambda code: Diagram()),
            "properties": ("classify", lambda diagram: [SimpleNamespace(rule="dot", holds=False)]),
        }
        monkeypatch.setattr(oracle, *patches[failing])
        code, out, _ = run_cli(["verify", "--n", "3", "--grid", "2x2"], capsys)
        assert code == 1
        totals = {
            name: report.get("counterexample_total", report.get("failure_total"))
            for name, report in json.loads(out).items()
        }
        assert {name for name, total in totals.items() if total} == {failing}

    def test_grid_guard_exit_2(self, capsys):
        code, _, err = run_cli(["verify", "--grid", "9x9"], capsys)
        assert code == 2
        assert err

    def test_large_bounds_need_opt_in(self, capsys):
        code, _, err = run_cli(["verify", "--n", "8", "--grid", "2x2"], capsys)
        assert code == 2
        assert "--large" in err

    def test_jobs_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("ROTHE_JOBS", "2")
        code, out, _ = run_cli(["verify", "--n", "2", "--grid", "2x2"], capsys)
        assert code == 0
        assert json.loads(out)["characterizations"]["examined"] == 16

    def test_bad_grid_format_exit_2(self, capsys):
        code, _, err = run_cli(["verify", "--grid", "3by3"], capsys)
        assert code == 2

    def test_grid_must_be_ascii_digits(self, capsys):
        code, out, err = run_cli(["verify", "--grid", "\u0662x\u0662"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: grid must look like")

    @pytest.mark.parametrize(
        "option, value", [("--n", "\u0663"), ("--n", "+3"), ("--n", "1_0"), ("--n", "0_3"), ("--jobs", "\u0661")]
    )
    def test_integers_must_be_ascii_digits(self, option, value, capsys):
        code, out, err = run_cli(["verify", "--grid", "2x2", option, value], capsys)
        assert (code, out) == (2, "")
        assert f"argument {option}: invalid" in err

    def test_jobs_env_var_must_be_ascii_digits(self, capsys, monkeypatch):
        monkeypatch.setenv("ROTHE_JOBS", "\u0661")
        code, out, err = run_cli(["verify", "--n", "2", "--grid", "2x2"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ROTHE_JOBS is not an integer")


class TestRenderCommand:
    def test_231_with_dots(self, tmp_path, capsys):
        path = write_diagram(tmp_path, CELLS_231)
        code, out, _ = run_cli(["render", path, "--dots"], capsys)
        assert code == 0
        assert out.rstrip("\n") == GOLDEN_231_DOTS

    def test_231_flipped(self, tmp_path, capsys):
        path = write_diagram(tmp_path, CELLS_231)
        code, out, _ = run_cli(["render", path, "--dots", "--flip"], capsys)
        assert out.rstrip("\n") == GOLDEN_231_DOTS_FLIPPED

    def test_231_basement(self, tmp_path, capsys):
        path = write_diagram(tmp_path, CELLS_231)
        code, out, _ = run_cli(["render", path, "--basement"], capsys)
        assert out.rstrip("\n") == GOLDEN_231_BASEMENT

    def test_empty_viewport(self, tmp_path, capsys):
        path = write_diagram(tmp_path, set())
        code, out, _ = run_cli(["render", path], capsys)
        assert code == 0
        assert out.rstrip("\n") == GOLDEN_EMPTY

    def test_running_labels(self, tmp_path, capsys):
        path = write_diagram(tmp_path, RUNNING_CELLS)
        code, out, _ = run_cli(["render", path, "--labels"], capsys)
        assert out.rstrip("\n") == GOLDEN_RUNNING_LABELS

    def test_running_dots(self, tmp_path, capsys):
        path = write_diagram(tmp_path, RUNNING_CELLS)
        code, out, _ = run_cli(["render", path, "--dots"], capsys)
        assert out.rstrip("\n") == GOLDEN_RUNNING_DOTS

    def test_stable_across_runs(self, tmp_path, capsys):
        path = write_diagram(tmp_path, RUNNING_CELLS)
        _, first, _ = run_cli(["render", path, "--dots", "--labels"], capsys)
        _, second, _ = run_cli(["render", path, "--dots", "--labels"], capsys)
        assert first == second

    def test_custom_glyphs(self, tmp_path, capsys):
        path = write_diagram(tmp_path, {(1, 1)})
        code, out, _ = run_cli(["render", path, "--glyphs", "@_+%"], capsys)
        assert code == 0
        assert out.rstrip("\n") == "@"

    def test_glyphs_must_be_distinct(self, tmp_path, capsys):
        path = write_diagram(tmp_path, {(1, 1)})
        code, _, err = run_cli(["render", path, "--glyphs", "oo*#"], capsys)
        assert code == 2

    def test_labels_beyond_nine_exit_2(self, tmp_path, capsys):
        path = write_diagram(tmp_path, {(1, c) for c in range(1, 11)})
        code, _, err = run_cli(["render", path, "--labels"], capsys)
        assert code == 2
        assert err


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rothe", "diagram", RUNNING_TEXT],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["cells"] == [
            list(c) for c in sorted(RUNNING_CELLS)
        ]

    def test_usage_error_exit_2(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_no_args_shows_usage(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    """A reader that closes stdout early ends the run quietly with exit 1."""

    def test_in_process_write_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(["lehmer", RUNNING_TEXT]) == 1
        assert capsys.readouterr().err == ""

    def test_module_with_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rothe", "verify", "--grid", "2x2", "--n", "3"],
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1
