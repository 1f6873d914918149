"""Outside-in tracer for the trenchrank modules.

The tracer wraps public functions without touching the package source.
A wrapper replaces the function in every ``trenchrank`` module namespace
that binds it, so a call made through ``from .design import
build_matrix`` inside ``fit`` goes through the wrapper too.

Two kinds of wrapper:

- span functions record one span per call (name, start, end, parent,
  self time and run id), kept in memory and written out by ``dump``;
- per-row functions, called once per interaction, only add to a call
  count and a total time, and charge that time to the open span as
  child time, so the caller's self time excludes them.

A traced name the package no longer defines is recorded in ``absent``
instead of raising, so the trace keeps working after a refactor deletes
a function.  Optional hooks read counts (rows, iterations, nnz) from a
call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Mapping

PACKAGE = "trenchrank"

Hook = Callable[[dict, tuple, dict, object], None]


class Tracer:
    """Collects spans and per-row aggregates while installed."""

    def __init__(self) -> None:
        self.run_id = ""
        self.spans: list[tuple] = []  # (run, id, parent, name, start, end, self)
        self.rows: dict[str, list] = {}  # name -> [calls, total seconds]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(
        self,
        span_names: Mapping[str, Hook | None],
        row_names: tuple[str, ...] = (),
    ) -> None:
        """Wrap each ``module.function`` name (relative to the package)."""
        for name, hook in span_names.items():
            self._patch(name, lambda fn, n=name, h=hook: self._span_wrapper(fn, n, h))
        for name in row_names:
            self._patch(name, lambda fn, n=name: self._row_wrapper(fn, n))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, name: str, make_wrapper) -> None:
        module_name, _, attr = name.rpartition(".")
        try:
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            self.absent.append(name)
            return
        original = getattr(home, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, fn, name: str, hook: Hook | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            record = [len(spans) + len(stack), 0.0]
            stack.append(record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append(
                    (self.run_id, record[0], parent, name, start, end, duration - record[1])
                )
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _row_wrapper(self, fn, name: str):
        stack, clock = self._stack, time.perf_counter
        agg = self.rows.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                agg[0] += 1
                agg[1] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    # -- results ------------------------------------------------------

    def reset(self, run_id: str) -> None:
        """Start a new run: spans are kept, aggregates and counts restart."""
        self.run_id = run_id
        for agg in self.rows.values():
            agg[0], agg[1] = 0, 0.0
        self.counts.clear()

    def summary(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per-name calls, total and self seconds for one run id."""
        out: dict[str, dict[str, float]] = {}
        for run, _, _, name, start, end, self_s in self.spans:
            if run != run_id:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        for name, (calls, total) in self.rows.items():
            out[name] = {"calls": calls, "total_s": total, "self_s": total}
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for run, sid, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({
                    "run": run, "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "self_s": self_s,
                }) + "\n")
