"""Measurement loop, statistics and the result line.

A workload is a fixed list of :class:`Op`.  Every pass starts cold: before
it, outside the timed region, the package is imported afresh and the
inputs are rebuilt from the seed, so nothing a pass leaves behind in the
package (a memo, a cached table) or in its inputs can serve the next one.
Each of these set-ups is timed too.  One pass runs every op once, in
order, on one thread; only ``Op.run`` is timed.  Each result is checked
right after its op, outside the timed region and with tracing paused: the
first time an op succeeds its full check runs, and later passes compare a
compact summary of the result against that first one.  An op that raises,
fails its check or changes its summary counts as failed.

Passes repeat until ``seconds`` have gone by and at least
``MIN_PASSES`` have run.  A traced run alternates plain and traced passes,
so the tracing overhead is measured on the same inputs in the same
process.

Reported times are scaled to a nominal machine speed.  A shared machine
can run the same code twice as fast one minute as the next, which no
regression bound survives.  So a fixed pure-Python reference loop
(:func:`reference_work`, part of the benchmark, never of the package) is
timed before the first op and after every op, and each op's time is
multiplied by ``REFERENCE_NOMINAL_S`` over the median reference time
around it.  A reported millisecond is a millisecond on a machine that runs
the reference loop in ``REFERENCE_NOMINAL_S``.  The raw figures and the
measured reference time are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from tracing import Tracer

MIN_PASSES = 5
MIN_TRACED_PASSES = 3
TAIL_BEYOND = 10
REFERENCE_ITERATIONS = 4000
REFERENCE_NOMINAL_S = 0.0022

# Per-layer metrics of a traced run, by name.  ``<span>.ms`` is busy time
# per pass, ``<span>.self_ms`` busy time minus child spans, ``<span>.calls``
# calls per pass; other names are counters summed over a pass.
LAYER_METRICS: tuple[str, ...] = (
    "relations.transition_monoid.ms",
    "relations.transition_monoid.calls",
    "relations.monoid_elements",
    "relations.idempotents",
    "covers.stable_core.ms",
    "covers.stable_core.self_ms",
    "covers.stable_core.calls",
    "covers.stable_sets",
    "covers.check_regular.ms",
    "covers.check_regular.self_ms",
    "covers.merged_graph.ms",
    "covers.merged_graph.calls",
    "covers.future_classes",
    "analysis.follower_partition.ms",
    "analysis.follower_partition.calls",
    "analysis.follower_contains.ms",
    "analysis.follower_contains.calls",
    "analysis.graphs_isomorphic.ms",
    "analysis.graphs_isomorphic.calls",
    "analysis.components_and_sources.ms",
    "fibers.fiber_core.ms",
    "fibers.fiber_core.calls",
    "fibers.fiber_core_vertices",
    *(f"verification.criterion_{k}.ms" for k in range(1, 9)),
    *(f"cli.{cmd}.ms" for cmd in (
        "check", "subset", "past-cover", "future-cover", "extended-future-cover",
        "gpp", "gprime", "fibers", "iso", "export",
    )),
    "graphs.essentialize.ms",
    "graphs.check_right_resolving.ms",
    "graphs.check_right_resolving.calls",
    "io.round_trip.ms",
    "io.export_dot.ms",
    "trace.overhead_frac",
)


def layer_unit(metric: str) -> str:
    if metric == "trace.overhead_frac":
        return "ratio"
    return "ms" if metric.endswith("ms") else "count"


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``layer`` names the op's own span in a traced run.  ``check`` returns
    the problems it finds in a result (none means correct); ``summary``
    reduces a result to a small value that later passes must reproduce.
    """

    name: str
    layer: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    summary: Callable[[Any], Any]


def reference_work(n: int = REFERENCE_ITERATIONS) -> int:
    """A fixed mix of the interpreter work the package does: small
    frozensets, dict updates, tuple hashing and integer bit operations."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = frozenset((i & 7, (i >> 3) & 7))
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + (i ^ (i >> 2))) & 0xFFFF
        acc ^= hash((acc, i & 15)) & 0xFF
    return acc + len(table)


def reference_s() -> float:
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def speed_scale(reference_times: list[float]) -> float:
    """Factor from measured seconds to seconds at the nominal speed."""
    return REFERENCE_NOMINAL_S / statistics.median(reference_times)


@dataclass
class PassResult:
    """One pass: per-op raw seconds and scale factors, failures, and for a
    traced pass the per-layer totals and counters."""

    traced: bool
    raw: list[float]
    scales: list[float]
    failures: list[tuple[str, str]]
    setup_s: float = 0.0  # the set-up before the pass, at the nominal speed
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def latencies(self) -> list[float]:
        """Per-op seconds at the nominal speed."""
        return [t * k for t, k in zip(self.raw, self.scales)]

    @property
    def total(self) -> float:
        return sum(self.latencies)

    @property
    def scale(self) -> float:
        return statistics.median(self.scales)


def run_pass(ops: list[Op], tracer: Tracer, reference: dict[str, Any], traced: bool) -> PassResult:
    """One pass over ``ops``.  As in ``timeit``, the cyclic garbage
    collector is off during the pass and runs in full before it, so a
    collection triggered by earlier allocations does not land in a
    random op's time."""
    gc.collect()
    gc.disable()
    try:
        out = _pass(ops, tracer, reference, traced)
    finally:
        gc.enable()
    if traced:
        out.layers, out.counts = tracer.take()
    return out


def _pass(ops: list[Op], tracer: Tracer, reference: dict[str, Any], traced: bool) -> PassResult:
    raw, failures = [], []
    refs = [reference_s()]
    for op in ops:
        tracer.op = op.name
        tracer.enabled = traced
        span = tracer.open(op.layer) if traced else None
        error: Optional[Exception] = None
        started = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, exc
        elapsed = time.perf_counter() - started
        if span is not None:
            tracer.close(span)
        tracer.enabled = False
        raw.append(elapsed)
        refs.append(reference_s())
        problems = ([f"{type(error).__name__}: {error}"] if error is not None
                    else _verify(op, result, reference))
        # Free the result or exception here, not when the next op's result
        # replaces it inside that op's timed region.
        result = error = None
        if problems:
            failures.append((op.name, "; ".join(str(p) for p in problems[:3])))
    # refs[i] was taken just before op i and refs[i + 1] just after it.
    scales = [speed_scale(refs[max(0, i - 1):i + 3]) for i in range(len(ops))]
    return PassResult(traced, raw, scales, failures)


def _verify(op: Op, result: Any, reference: dict[str, Any]) -> list[str]:
    if op.name in reference:
        if op.summary(result) != reference[op.name]:
            return ["result differs from the first pass"]
        return []
    try:
        problems = op.check(result)
    except Exception as exc:  # a check that cannot even read the result fails the op
        return [f"check raised {type(exc).__name__}: {exc}"]
    if not problems:
        reference[op.name] = op.summary(result)
    return problems


def measure(set_up: Callable[[], list[Op]], seconds: float, traced: bool,
            tracer: Tracer) -> list[PassResult]:
    """Set up and run passes until ``seconds`` have gone by.

    ``set_up`` imports the package afresh and returns the op list built on
    new inputs; it runs before every pass.  A traced pass gets the tracer
    installed on the modules that set-up just imported.
    """
    passes: list[PassResult] = []
    reference: dict[str, Any] = {}
    started = time.perf_counter()
    while True:
        trace_this = traced and len(passes) % 2 == 1
        tracer.uninstall()
        gc.collect()
        before = reference_s()
        setup_started = time.perf_counter()
        ops = set_up()
        setup_s = time.perf_counter() - setup_started
        setup_s *= speed_scale([before, reference_s()])
        if trace_this:
            tracer.install()
        passes.append(run_pass(ops, tracer, reference, trace_this))
        passes[-1].setup_s = setup_s
        del ops
        plain = sum(not p.traced for p in passes)
        enough = plain >= (MIN_TRACED_PASSES if traced else MIN_PASSES)
        if traced:
            enough = enough and len(passes) - plain >= MIN_TRACED_PASSES
        if enough and time.perf_counter() - started >= seconds:
            tracer.uninstall()
            return passes


def tail_rank(n: int) -> Optional[int]:
    """0-based index, in ascending order, of the highest-percentile sample
    that still has ``TAIL_BEYOND`` samples beyond it, or None if n is too
    small for any."""
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else None


def op_latencies(passes: list[PassResult], scaled: bool = True) -> list[float]:
    """Each op's median latency in seconds over the untraced passes."""
    plain = [p.latencies if scaled else p.raw for p in passes if not p.traced]
    return [statistics.median(column) for column in zip(*plain)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list[PassResult]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and readable lines with failures and raw times."""
    per_op = op_latencies(passes)
    n = len(per_op)
    ordered = sorted(per_op)
    rank = tail_rank(n)
    if rank is None:
        raise ValueError(f"a workload needs more than {TAIL_BEYOND} ops, got {n}")
    plain = [p for p in passes if not p.traced]
    pass_s = statistics.median(p.total for p in plain)
    raw_pass_s = statistics.median(sum(p.raw) for p in plain)
    raw_per_op = op_latencies(passes, scaled=False)
    attempted = sum(len(p.raw) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    speed = statistics.median(p.scale for p in plain)
    values = {
        "setup_s": (statistics.median(p.setup_s for p in passes), "s",
                    f"median of {len(passes)} set-ups, one before each pass"),
        "ops_per_s": (n / pass_s, "ops/s",
                      f"{n} ops over the median pass of {pass_s:.3f} s (raw {n / raw_pass_s:.4g})"),
        "op_p50_ms": (statistics.median(per_op) * 1000.0, "ms",
                      f"median of {n} per-op medians (raw {statistics.median(raw_per_op) * 1000.0:.4g})"),
        "op_tail_ms": (ordered[rank] * 1000.0, "ms",
                       f"p{100.0 * (rank + 1) / n:.1f}, {n - rank - 1} of {n} ops beyond it "
                       f"(raw {sorted(raw_per_op)[rank] * 1000.0:.4g})"),
        "failed_frac": (failed / attempted, "ratio", f"{failed} of {attempted} op runs"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "peak resident set of the process"),
    }
    lines = [f"reference loop {REFERENCE_NOMINAL_S / speed * 1000.0:.3f} ms (nominal "
             f"{REFERENCE_NOMINAL_S * 1000.0:.3f} ms); times are scaled by {speed:.3f}"]
    lines += [f"{name:<12} {value:>14.6g} {unit:<6} {note}" for name, (value, unit, note) in values.items()]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()
               if name != "failed_frac"}
    return metrics, lines


def per_layer(passes: list[PassResult]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_frac":
            value = (statistics.median(p.total for p in traced)
                     / statistics.median(p.total for p in plain) - 1.0)
        else:
            value = statistics.median(_layer_value(p, name) for p in traced)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    return metrics


def _layer_value(p: PassResult, name: str) -> float:
    span, _, field_name = name.rpartition(".")
    if field_name in ("ms", "self_ms", "calls") and span:
        row = p.layers.get(span)
        if not row:
            return 0
        return row[field_name] * p.scale if field_name != "calls" else row[field_name]
    return p.counts.get(name, 0)
