"""Spans around the public functions of each ``rothe`` layer, from outside.

:class:`Tracer` replaces every module binding of each function in
:data:`TARGETS` with a wrapper that records one span per call: the
function, its parent span, and its start and end times.  Spans stay in
memory until :meth:`Tracer.write`; per-layer calls and self time are
computed from them, self time being a span's duration minus that of its
direct children.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from pathlib import Path

# Module -> public names to wrap.  "Diagram" stands for construction
# (``Diagram.__init__``); dotted names are methods or classmethods.
TARGETS = {
    "core": (
        "parse_permutation",
        "Diagram",
        "Diagram.from_json_obj",
        "rothe_diagram",
        "lehmer_code",
        "permutation_from_lehmer",
        "recover_permutation",
    ),
    "rules": (
        "classify",
        "condition_verdicts",
        "row_dots",
        "column_dots",
        "check_southwest",
        "check_dot_rule",
        "check_vertical_popping",
        "check_horizontal_popping",
        "check_numbering",
        "horizontal_numbering",
        "vertical_numbering",
        "find_step_outs",
        "gap_boxes",
        "final_bubbles",
        "check_rothe",
        "RuleReport.to_json_obj",
    ),
    "reconstruct": (
        "build_from_row_counts",
        "check_free_numbering",
        "find_free_step_outs",
        "place_free_columns",
    ),
    "oracle": (
        "verify_characterizations",
        "verify_lehmer_bijection",
        "verify_rothe_properties",
        "enumerate_permutations",
    ),
    "cli": ("main",),
}

LAYER_NAMES = tuple(f"{module}.{name}" for module, names in TARGETS.items() for name in names)


class Tracer:
    """Installs span-recording wrappers into the ``rothe`` package and removes them."""

    def __init__(self) -> None:
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> list[str]:
        """Wrap every target at every module binding; returns the names not found."""
        modules = [importlib.import_module("rothe")] + [
            importlib.import_module(f"rothe.{m}") for m in TARGETS
        ]
        missing = []
        for name_id, layer_name in enumerate(LAYER_NAMES):
            module_name, _, name = layer_name.partition(".")
            home = importlib.import_module(f"rothe.{module_name}")
            if "." in name or name[:1].isupper():
                if not self._wrap_method(home, name, name_id):
                    missing.append(layer_name)
                continue
            original = getattr(home, name, None)
            if original is None:
                missing.append(layer_name)
                continue
            wrapped = self._wrap(name_id, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._patch(module, name, wrapped)
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, home, name: str, name_id: int) -> bool:
        class_name, _, method = name.partition(".")
        cls = getattr(home, class_name, None)
        attr = method or "__init__"
        original = getattr(cls, "__dict__", {}).get(attr)
        if original is None:
            return False
        if isinstance(original, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(name_id, original.__func__)))
        else:
            self._patch(cls, attr, self._wrap(name_id, original))
        return True

    def _wrap(self, name_id: int, fn):
        names, parents = self._span_name, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = start
                stack.pop()

        return traced

    @property
    def span_count(self) -> int:
        return len(self._span_name)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) for every name in :data:`LAYER_NAMES`."""
        calls = [0] * len(LAYER_NAMES)
        self_s = [0.0] * len(LAYER_NAMES)
        names, parents = self._span_name, self._span_parent
        for span, name_id in enumerate(names):
            duration = self._span_end[span] - self._span_start[span]
            calls[name_id] += 1
            self_s[name_id] += duration
            parent = parents[span]
            if parent >= 0:
                self_s[names[parent]] -= duration
        return {name: (calls[i], self_s[i]) for i, name in enumerate(LAYER_NAMES)}

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line to a gzip file.

        ``request`` is the span's root, the ``cli.main`` call that caused
        it; times are microseconds from the first span's start.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end
        origin = starts[0] if starts else 0.0
        request = array("i", [0]) * len(names)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tparent\trequest\tname\tstart_us\tend_us\n")
            for span, name_id in enumerate(names):
                parent = parents[span]
                request[span] = span if parent < 0 else request[parent]
                handle.write(
                    f"{span}\t{parent}\t{request[span]}\t{LAYER_NAMES[name_id]}\t"
                    f"{(starts[span] - origin) * 1e6:.1f}\t{(ends[span] - origin) * 1e6:.1f}\n"
                )
