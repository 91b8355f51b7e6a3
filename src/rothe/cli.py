"""Command-line interface: one subcommand per operation, JSON on stdout.

Results go to stdout as single-line JSON (or plain text where noted),
diagnostics to stderr.  Exit code 0 means success, 1 means a check ran and
failed or stdout was closed early, 2 means the input or invocation was
unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from .core import (
    Diagram,
    ParseError,
    lehmer_code,
    parse_permutation,
    permutation_from_lehmer,
    recover_permutation,
    rothe_diagram,
)
from .oracle import (
    verify_characterizations,
    verify_lehmer_bijection,
    verify_rothe_properties,
)
from .reconstruct import (
    FreeColumns,
    build_from_row_counts,
    check_free_numbering,
    find_free_step_outs,
    place_free_columns,
)
from .rules import RULES, classify, horizontal_numbering

__all__ = ["RenderOptions", "main", "render_diagram", "run"]

DEFAULT_SIZE = 6
DEFAULT_GRID = "3x3"
MAX_CASUAL_SIZE = 6
MAX_CASUAL_GRID_CELLS = 9
_COMMANDS = ("diagram", "lehmer", "unlehmer", "check", "build", "place", "verify", "render")


@dataclass(frozen=True)
class RenderOptions:
    """What to draw and with which glyphs."""

    show_dots: bool = False
    show_basement: bool = False
    show_labels: bool = False
    flip: bool = False
    bubble: str = "o"
    empty: str = "."
    dot: str = "*"
    basement: str = "#"

    def __post_init__(self) -> None:
        glyphs = (self.bubble, self.empty, self.dot, self.basement)
        for glyph in glyphs:
            if len(glyph) != 1 or not glyph.isprintable() or glyph.isspace():
                raise ValueError(f"glyph must be one printable character: {glyph!r}")
        if len(set(glyphs)) != len(glyphs):
            raise ValueError(f"glyphs must be pairwise distinct: {''.join(glyphs)!r}")


def render_diagram(diagram: Diagram, options: RenderOptions = RenderOptions()) -> str:
    """Draw the diagram as ASCII art, one grid row per line.

    Row 1 is the bottom line unless ``options.flip`` reverses the order.
    Dots are cut off one row above the highest bubble; the viewport is the
    bounding box of everything drawn, at least one cell, starting at
    column 0 when the basement column is shown.

    >>> render_diagram(Diagram.from_cells([(1, 1), (2, 1)]))
    'o\\no'
    """
    shown = diagram.dot_columns[: diagram.max_row + 1] if options.show_dots else ()
    dots = frozenset(enumerate(shown, 1))
    marks = set(diagram.cells) | dots
    labels = {}
    if options.show_labels:
        labels = horizontal_numbering(diagram)
        oversized = sorted(c for c, n in labels.items() if n > 9)
        if oversized:
            raise ValueError(f"labels pass 9 and need more than one character: {oversized[0]}")
    top = max((r for r, _ in marks), default=1)
    col_lo = 0 if options.show_basement else 1
    col_hi = max((c for _, c in marks), default=1)
    lines = []
    for row in range(top, 0, -1):
        line = []
        for col in range(col_lo, col_hi + 1):
            if (row, col) in diagram.cells:
                line.append(str(labels[(row, col)]) if labels else options.bubble)
            elif (row, col) in dots:
                line.append(options.dot)
            elif col == 0:
                line.append(options.basement)
            else:
                line.append(options.empty)
        lines.append("".join(line))
    if options.flip:
        lines.reverse()
    return "\n".join(lines)


def _print_json(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, encoding="utf-8") as handle:
        return handle.read()


def _read_permutation_arg(tokens: list[str]):
    text = " ".join(tokens)
    if text == "-":
        text = sys.stdin.read()
    return parse_permutation(text)


def _load_diagram(source: str) -> Diagram:
    return Diagram.from_json_obj(json.loads(_read_source(source)))


def _ascii_int(text: str, what: str = "value") -> int:
    # ASCII digits only: int() would also take "1_0", "+1" and "٢".
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ParseError(f"{what} is not an integer: {text!r}")
    return int(text)


def _parse_counts(text: str) -> list[int]:
    counts = []
    for token in text.replace(",", " ").split():
        value = _ascii_int(token, "row count")
        if value < 0:
            raise ParseError(f"row count cannot be negative: {value}")
        counts.append(value)
    return counts


def _parse_grid(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"([0-9]+)x([0-9]+)", text)
    if match is None:
        raise ParseError(f"grid must look like {DEFAULT_GRID!r}, got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _cmd_diagram(args: argparse.Namespace) -> int:
    diagram = rothe_diagram(_read_permutation_arg(args.permutation))
    _print_json(diagram.to_json_obj())
    if args.ascii:
        print(render_diagram(diagram))
    return 0


def _cmd_lehmer(args: argparse.Namespace) -> int:
    _print_json(lehmer_code(_read_permutation_arg(args.permutation)).to_json_obj())
    return 0


def _cmd_unlehmer(args: argparse.Namespace) -> int:
    print(permutation_from_lehmer(_parse_counts(args.counts)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args.diagram)
    if args.rules is None:
        reports = classify(diagram)
    else:
        names = [name.strip() for name in args.rules.split(",") if name.strip()]
        unknown = [name for name in names if name not in RULES]
        if unknown:
            known = ", ".join(RULES)
            raise ValueError(f"unknown rule {unknown[0]!r} (known: {known})")
        reports = [RULES[name](diagram) for name in names]
    _print_json([report.to_json_obj() for report in reports])
    return 0 if all(report.holds for report in reports) else 1


def _cmd_build(args: argparse.Namespace) -> int:
    diagram = build_from_row_counts(_parse_counts(args.rows))
    _print_json(diagram.to_json_obj())
    recovered = recover_permutation(diagram)
    if recovered is None:
        raise RuntimeError("built diagram did not recover a permutation")
    print(recovered)
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    collection = FreeColumns.from_json_obj(json.loads(_read_source(args.columns)))
    placed = place_free_columns(collection)
    if placed is None:
        report = check_free_numbering(collection)
        if report.holds:
            report = find_free_step_outs(collection)
        _print_json(report.to_json_obj())
        return 1
    placement, diagram = placed
    _print_json(placement.to_json_obj())
    _print_json(diagram.to_json_obj())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rows, cols = _parse_grid(args.grid)
    env_jobs = os.environ.get("ROTHE_JOBS", "1")
    jobs = args.jobs if args.jobs is not None else _ascii_int(env_jobs, "ROTHE_JOBS")
    if not args.large and (args.n > MAX_CASUAL_SIZE or rows * cols > MAX_CASUAL_GRID_CELLS):
        print(
            f"error: bounds beyond n={MAX_CASUAL_SIZE} or "
            f"{MAX_CASUAL_GRID_CELLS} grid cells take a while; pass --large to run them",
            file=sys.stderr,
        )
        return 2
    grid = verify_characterizations(rows, cols, jobs=jobs)
    lehmer = verify_lehmer_bijection(args.n, jobs=jobs)
    properties = verify_rothe_properties(args.n, jobs=jobs)
    reports = {"characterizations": grid, "lehmer": lehmer, "properties": properties}
    _print_json({name: report.to_json_obj() for name, report in reports.items()})
    failed = grid.counterexample_total or lehmer.failure_total or properties.failure_total
    return 1 if failed else 0


def _cmd_render(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args.diagram)
    glyphs = {}
    if args.glyphs is not None:
        if len(args.glyphs) != 4:
            raise ValueError(
                f"--glyphs needs exactly 4 characters (bubble, empty, dot, basement), got {args.glyphs!r}"
            )
        glyphs = dict(zip(("bubble", "empty", "dot", "basement"), args.glyphs))
    options = RenderOptions(
        show_dots=args.dots,
        show_basement=args.basement,
        show_labels=args.labels,
        flip=args.flip,
        **glyphs,
    )
    print(render_diagram(diagram, options))
    return 0


# main builds only the subparser argv[0] names: all eight take 0.78 ms to build, one 0.15 ms.
# A parser cached across calls raised peak RSS by up to 16.5%, as full collections stopped
# (CHANGES.md, FOUND 23).  The metavar keeps a narrowed parser's usage line the same.
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rothe",
        description="Construct, validate, and reconstruct Rothe diagrams of permutations.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "diagram"):
        p = sub.add_parser("diagram", help="print the diagram of a permutation as JSON")
        p.add_argument("permutation", nargs="+", help="one-line word, or - for stdin")
        p.add_argument("--ascii", action="store_true", help="append an ASCII rendering")
        p.set_defaults(handler=_cmd_diagram)

    if command in (None, "lehmer"):
        p = sub.add_parser("lehmer", help="print the row counts of a permutation")
        p.add_argument("permutation", nargs="+", help="one-line word, or - for stdin")
        p.set_defaults(handler=_cmd_lehmer)

    if command in (None, "unlehmer"):
        p = sub.add_parser("unlehmer", help="rebuild the permutation behind row counts")
        p.add_argument("counts", help="comma or space separated counts, may be empty")
        p.set_defaults(handler=_cmd_unlehmer)

    if command in (None, "check"):
        p = sub.add_parser("check", help="run rule checkers over a diagram")
        p.add_argument("diagram", help="path to diagram JSON, or - for stdin")
        p.add_argument("--rules", help="comma separated subset of rules to run")
        p.set_defaults(handler=_cmd_check)

    if command in (None, "build"):
        p = sub.add_parser("build", help="build the diagram with given row counts")
        p.add_argument("--rows", required=True, help="comma or space separated counts")
        p.set_defaults(handler=_cmd_build)

    if command in (None, "place"):
        p = sub.add_parser("place", help="place a free column collection")
        p.add_argument("columns", help="path to columns JSON, or - for stdin")
        p.set_defaults(handler=_cmd_place)

    if command in (None, "verify"):
        p = sub.add_parser("verify", help="brute-force the equivalences at small bounds")
        p.add_argument("--n", type=_ascii_int, default=DEFAULT_SIZE, help="permutation size to sweep")
        p.add_argument("--grid", default=DEFAULT_GRID, help="diagram grid bounds, like 3x3")
        p.add_argument("--jobs", type=_ascii_int, help="worker processes (default $ROTHE_JOBS or 1)")
        p.add_argument("--large", action="store_true", help="allow slow bounds")
        p.set_defaults(handler=_cmd_verify)

    if command in (None, "render"):
        p = sub.add_parser("render", help="draw a diagram as ASCII art")
        p.add_argument("diagram", help="path to diagram JSON, or - for stdin")
        p.add_argument("--dots", action="store_true", help="overlay the row dots")
        p.add_argument("--basement", action="store_true", help="show the basement column")
        p.add_argument("--labels", action="store_true", help="write numbering labels on bubbles")
        p.add_argument("--flip", action="store_true", help="print row 1 first")
        p.add_argument("--glyphs", help="four characters: bubble, empty, dot, basement")
        p.set_defaults(handler=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # A reader that closes stdout early (``| head``) is not bad input.
    except BrokenPipeError:
        return 1
    # RecursionError is JSON input nested deeper than the decoder can follow.
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Exit with :func:`main`'s code; a closed stdout exits 1 without a word."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout once more at exit; let that flush hit devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
