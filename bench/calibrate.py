"""Rebuild ``bench/pool.json``, the inputs of the ``ladder`` and ``wide`` workloads.

Usage, from the repository root::

    python3 bench/calibrate.py [ladder|wide ...]

For each class in :data:`pool.RUNGS` and :data:`pool.WIDE_SIZES` the
script draws graphs from fixed generator seeds until it has ``GATHER``
that fall in the class: a ladder rung's monoid within 20% of its target
size, a wide base of the stated size (within one vertex) whose vertices
all have different follower sets.  It then keeps :data:`pool.CANDIDATES`
of them whose ops cost about the same, op by op, so that a run costs
about the same whichever candidates its seed draws.  For every kept
candidate it records sizes and verdicts computed by the package; runs
check against them.

A wide op's cost is the number of lines of Python it executes, an exact
count: the script keeps the candidates whose counts agree most closely.
Size alone would not do, because the isomorphism search and the
follower-containment pairs vary with a graph's shape.

A ladder op's cost is its time, scaled by the benchmark's reference loop.
Neither counts nor lines predicted it closely enough: ``stable_core``
loops over idempotents x |M| in set operations that no line count sees.
The script times each candidate's ops once, shortlists the ``SHORTLIST``
whose times lie closest to the class's median times, times those in
``RETIMES`` round-robin rounds (keeping each op's median) and keeps the
candidates closest to the shortlist's medians.  So a ladder pool rebuilt
on another machine may keep other seeds; the checked-in pool is the
benchmark's definition.

It takes about twenty minutes.  A new pool needs a new baseline.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import generators as gen  # noqa: E402
import harness  # noqa: E402
import pool  # noqa: E402
import workloads  # noqa: E402

from soficovers.errors import BudgetExceededError  # noqa: E402
from soficovers.graphs import check_right_resolving  # noqa: E402
from soficovers.relations import transition_monoid  # noqa: E402

GATHER = {"ladder": 40, "wide": 16}
SHORTLIST = 10
RETIMES = 5
MAX_ATTEMPTS = 40_000
TIMED_FLOOR_S = 0.0005  # ops faster than this are left out of the distance
# Added to every line count, so that ops too small to matter for the run's
# cost do not decide the choice.
LINES_FLOOR = 10_000


def _ladder_candidates(index: int, rung: pool.Rung):
    lo, hi = int(rung.monoid_target * 0.8), int(rung.monoid_target * 1.2)
    for attempt in range(MAX_ATTEMPTS):
        seed = 1_000_003 * (index + 1) + attempt
        raw = 8 + attempt % 9
        g = gen.ladder_graph(seed, raw, rung.symbols, rung.right_resolving)
        if not 6 <= len(g[1]) <= 14:
            continue
        graph = gen.to_graph(g)
        if check_right_resolving(graph).ok != rung.right_resolving:
            continue
        try:
            monoid = transition_monoid(graph, hi)
        except BudgetExceededError:
            continue
        if len(monoid) < lo:
            continue
        yield {
            "seed": seed,
            "raw_vertices": raw,
            "symbols": rung.symbols,
            "right_resolving": rung.right_resolving,
            "digest": gen.digest(g),
            "vertices": len(g[1]),
            "edges": len(g[2]),
            "monoid_elements": len(monoid),
            "idempotents": len(monoid.idempotent_indices()),
            "max_word": max(len(w) for w in monoid.words),
        }


def _wide_candidates(index: int, size: pool.WideSize):
    for attempt in range(MAX_ATTEMPTS):
        seed = 7_000_003 * (index + 1) + 10 * attempt
        base = gen.base_graph(seed, size.raw_vertices, size.symbols)
        if abs(len(base[1]) - size.base_vertices) > 1 or not gen.follower_separated(base):
            continue
        g = pool.wide_inputs(size, seed)
        yield {
            "seed": seed,
            "digest": gen.digest(g.lift),
            "base_vertices": len(base[1]),
            "base_edges": len(base[2]),
            "vertices": len(g.lift[1]),
            "edges": len(g.lift[2]),
            "pairs": g.pairs,
        }


def _ladder_expected(rung: pool.Rung, cand: dict, pkg) -> dict:
    graph = gen.to_graph(pool.ladder_input(cand))
    cand["stable_sets"] = len(pkg.covers.stable_core(graph).members)
    cand["future_classes"] = len(pkg.covers.future_cover(graph).cover.vertices)
    if rung.right_resolving:
        cand["follower_separated"] = pkg.analysis.is_follower_separated(graph)
        cand["regular_vertices"] = sum(pkg.covers.check_regular(graph).regular)
    if rung.gprime:
        cand["fiber_core_vertices"] = len(pkg.fibers.fiber_core(graph).members)
    return cand


def _op_times(ops) -> list[float]:
    """Each op's time, scaled to the nominal speed like the benchmark's own."""
    times = []
    for op in ops:
        before = harness.reference_s()
        started = time.perf_counter()
        op.run()
        elapsed = time.perf_counter() - started
        times.append(elapsed * harness.speed_scale([before, harness.reference_s()]))
    return times


def _op_lines(ops) -> list[int]:
    """The lines of Python each op executes, plus ``LINES_FLOOR``."""
    counts = []
    for op in ops:
        lines = 0

        def count(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count

        sys.settrace(count)
        try:
            op.run()
        finally:
            sys.settrace(None)
        counts.append(lines + LINES_FLOOR)
    return counts


def _closest(found: list[tuple[dict, list[int]]]) -> list[dict]:
    """The candidates whose line counts agree most closely: the group with
    the least ratio of largest to smallest count of any op."""
    def spread(group):
        return max(math.log(max(col) / min(col)) for col in zip(*(lines for _, lines in group)))

    best = min(itertools.combinations(found, pool.CANDIDATES), key=spread)
    return sorted((cand for cand, _ in best), key=lambda c: c["seed"])


def _nearest(found: list[tuple], keep: int) -> list[tuple]:
    """The ``keep`` entries whose op times are nearest the per-op medians."""
    medians = [statistics.median(col) for col in zip(*(t for _, t, _ in found))]

    def distance(times):
        return max((abs(math.log(t / m)) for t, m in zip(times, medians) if m >= TIMED_FLOOR_S),
                   default=0.0)

    return sorted(found, key=lambda f: (distance(f[1]), f[0]["seed"]))[:keep]


def _select(found: list[tuple]) -> list[dict]:
    """Shortlist on one timing; time the shortlist again in ``RETIMES``
    round-robin rounds, so that drift in machine speed hits every
    candidate alike; keep the candidates nearest the per-op medians."""
    shortlist = _nearest(found, SHORTLIST)
    rounds = [[_op_times(ops) for _, _, ops in shortlist] for _ in range(RETIMES)]
    retimed = [
        (cand, [statistics.median(r[i][j] for r in rounds) for j in range(len(ops))], ops)
        for i, (cand, _, ops) in enumerate(shortlist)
    ]
    kept = _nearest(retimed, pool.CANDIDATES)
    return sorted((cand for cand, _, _ in kept), key=lambda c: c["seed"])


def calibrate_ladder(pkg, out: dict) -> None:
    for index, rung in enumerate(pool.RUNGS):
        found = []
        for cand in _ladder_candidates(index, rung):
            ops = workloads.rung_ops(rung, cand, gen.to_graph(pool.ladder_input(cand)), pkg)
            found.append((cand, _op_times(ops), ops))
            if len(found) == GATHER["ladder"]:
                break
        kept = [_ladder_expected(rung, c, pkg) for c in _select(found)]
        out[rung.name] = kept
        print(rung.name, [(c["monoid_elements"], c["idempotents"]) for c in kept], flush=True)


def calibrate_wide(pkg, out: dict) -> None:
    for index, size in enumerate(pool.WIDE_SIZES):
        found = []
        for cand in _wide_candidates(index, size):
            ops = workloads.wide_ops(size.name, pool.wide_input(size, cand), pkg)
            found.append((cand, _op_lines(ops)))
            if len(found) == GATHER["wide"]:
                break
        kept = _closest(found)
        out[size.name] = kept
        print(size.name, [(c["base_vertices"], c["edges"]) for c in kept], flush=True)


def main(argv: list[str]) -> int:
    which = argv or ["ladder", "wide"]
    data = pool.load() if pool.POOL_PATH.exists() else {}
    data["about"] = "made by bench/calibrate.py; see its docstring and bench/pool.py"
    pkg = workloads.load_package()
    if "ladder" in which:
        data["ladder"] = {}
        calibrate_ladder(pkg, data["ladder"])
    if "wide" in which:
        data["wide"] = {}
        calibrate_wide(pkg, data["wide"])
    pool.POOL_PATH.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
