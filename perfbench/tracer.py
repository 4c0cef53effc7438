"""Span tracer for the traced benchmark run.

The tracer wraps spe's public layer functions from outside the program:
`install` replaces every reference to each function in the loaded `spe`
modules with a wrapper that records one span per call, and replaces
`subprocess.run` so that toolchain calls show up as `compile` and `run`
spans. Generator functions get one span per item instead of one per
call. It is installed only in the traced spe process; untraced runs
never import this module.

A span is a dict with its id, name, start and end (monotonic seconds),
the id of the enclosing span on the same thread (or None), the thread,
and an item id shared by every span of one variant: `<stem>#<seq>`,
where the stem is the corpus file's and seq is the variant's 1-based
stream position. Spans stay in memory until `write` saves them as JSONL.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

# (module, attribute, span name); generator functions get per-item spans
FUNCTIONS = (
    ("spe.minilang.parser", "parse", "minilang.parse"),
    ("spe.minilang.render", "render", "minilang.render"),
    ("spe.minilang.interp", "interpret", "minilang.interpret"),
    ("spe.skeleton", "extract", "skeleton.extract"),
    ("spe.skeleton", "normal_forms", "skeleton.normal_forms"),
    ("spe.combinat", "count_plan", "combinat.count_plan"),
    ("spe.enumerator", "realize", "enumerator.realize"),
    ("spe.enumerator", "realize_source", "enumerator.realize_source"),
    ("spe.enumerator", "canonical_signature", "enumerator.canonical_signature"),
    ("spe.harness", "run_campaign", "harness.run_campaign"),
    ("spe.harness", "read_log", "harness.read_log"),
)
GENERATORS = (
    ("spe.enumerator", "enumerate_assignments", "enumerator.enumerate_assignments"),
    ("spe.enumerator", "variants", "enumerator.variants"),
)

_VARIANT_FILE = re.compile(r"([^/]+)__v(\d+)\.c$")


class Tracer:
    def __init__(self, stems: list[str]):
        self.spans: list[dict] = []
        self._stems = stems
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._files_seen = 0
        self._stem = None
        self._seq = None

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _item(self):
        item = getattr(self._local, "item", None)
        if item is not None:
            return item
        if self._stem is None or self._seq is None:
            return None
        return f"{self._stem}#{self._seq}"

    def _open(self, name: str) -> dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "thread": threading.get_ident(),
            "item": self._item(),
        }
        stack.append(span["id"])
        span["start"] = time.monotonic()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    # -- wrappers ------------------------------------------------------------

    def wrap_function(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "skeleton.extract":
                # spe extracts each corpus file once, in command-line order
                self._stem = self._stems[self._files_seen] if self._files_seen < len(self._stems) else None
                self._files_seen += 1
                self._seq = None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "minilang.interpret":
                span["status"] = result.status.value
                span["steps"] = result.steps_used
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            seq = 0
            while True:
                if name == "enumerator.variants":
                    self._seq = seq + 1
                span = self._open(name)
                try:
                    value = next(it)
                except StopIteration:
                    span["exhausted"] = True
                    return
                finally:
                    self._close(span)
                seq += 1
                yield value

        return traced

    def wrap_subprocess_run(self, fn):
        @functools.wraps(fn)
        def traced(argv, *args, **kwargs):
            # a cell compiles <stem>__v<seq>.c, then runs <workdir>/a.out
            # on the same worker thread
            match = next((m for m in map(_VARIANT_FILE.search, map(str, argv)) if m), None)
            kind = "harness.compile" if match else "harness.run"
            if match:
                self._local.item = f"{match.group(1)}#{int(match.group(2))}"
            span = self._open(kind)
            try:
                return fn(argv, *args, **kwargs)
            except subprocess.TimeoutExpired:
                span["timeout"] = True
                raise
            finally:
                self._close(span)

        return traced

    # -- installation and output --------------------------------------------

    def install(self) -> None:
        """Swap every reference to a traced function in the loaded spe
        modules for its wrapper. Call after `spe.cli` is imported."""
        replacements = {}
        for table, wrap in ((FUNCTIONS, self.wrap_function), (GENERATORS, self.wrap_generator)):
            for module, attr, name in table:
                original = getattr(sys.modules[module], attr)
                replacements[id(original)] = (original, wrap(original, name))
        for modname, module in list(sys.modules.items()):
            if modname != "spe" and not modname.startswith("spe."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        command = sys.modules["spe.cli"].cmd_enumerate
        command.callback = self.wrap_function(command.callback, "cli.enumerate")
        subprocess.run = self.wrap_subprocess_run(subprocess.run)

    def write(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Reading spans back


def read_spans(path: str | Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.
    Children run on the parent's thread and nest inside it, so their
    intervals never overlap each other."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}
