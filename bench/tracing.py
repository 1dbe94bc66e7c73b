"""Spans around calls into the package's public functions, set from outside.

:class:`Tracer` replaces chosen package functions by thin wrappers, in
every ``soficovers`` module namespace that binds them, so calls made
inside the package are caught as well as the benchmark's own.  Each call
becomes a span: name, start, end, parent span and the operation it
belongs to.  Spans stay in memory and are written out when the run ends.
Nothing under ``src/`` is changed; :meth:`Tracer.uninstall` puts the
original functions back.

Spans are recorded only while the tracer is enabled, so the benchmark's
correctness checks, which call the same functions, leave no spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# Span name -> (module, function, {counter name: size of the result}).
TRACED: dict[str, tuple[str, str, dict[str, Callable]]] = {
    "relations.transition_monoid": ("relations", "transition_monoid", {
        "relations.monoid_elements": len,
        "relations.idempotents": lambda m: len(m.idempotent_indices()),
    }),
    "covers.stable_core": ("covers", "stable_core", {
        "covers.stable_sets": lambda core: len(core.members),
    }),
    "covers.check_regular": ("covers", "check_regular", {}),
    "covers.merged_graph": ("covers", "merged_graph", {
        "covers.future_classes": lambda bundle: len(bundle.cover.vertices),
    }),
    "analysis.follower_partition": ("analysis", "follower_partition", {}),
    "analysis.follower_contains": ("analysis", "follower_contains", {}),
    "analysis.graphs_isomorphic": ("analysis", "graphs_isomorphic", {}),
    "analysis.components_and_sources": ("analysis", "components_and_sources", {}),
    "fibers.fiber_core": ("fibers", "fiber_core", {
        "fibers.fiber_core_vertices": lambda core: len(core.members),
    }),
    "graphs.essentialize": ("graphs", "essentialize", {}),
    "graphs.check_right_resolving": ("graphs", "check_right_resolving", {}),
    "io.export_dot": ("io", "export_dot", {}),
}


class Tracer:
    """In-memory span recorder; one per run."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.archive: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = False
        self.op: Optional[str] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, counters: dict[str, Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            for counter, size in counters.items():
                self.counts[counter] += size(result)
            return result

        return traced

    def install(self, package: str = "soficovers") -> None:
        """Wrap every function in :data:`TRACED` wherever the package binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name, (module, function, counters) in TRACED.items():
            original = getattr(sys.modules[f"{package}.{module}"], function)
            wrapper = self.wrap(name, original, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def take(self) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
        """Per-layer totals and counts since the last call; spans are kept
        for :meth:`write`."""
        totals, counts = self.layer_totals(), dict(self.counts)
        base = len(self.archive)
        self.archive.extend([name, start, end, parent + base if parent >= 0 else -1, op]
                            for name, start, end, parent, op in self.spans)
        self.spans = []
        self.counts.clear()
        return totals, counts

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: busy ms, self ms (minus child spans) and calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            row = totals[name]
            row["ms"] += (end - start) * 1000.0
            row["self_ms"] += (end - start - children) * 1000.0
            row["calls"] += 1
        return totals

    def write(self, path) -> None:
        """Write every span taken so far, one JSON object a line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.archive):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
