"""Tests of the benchmark itself: inputs, op lists, statistics, failure counting.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import generators as gen
import harness
import pool
import run
from tracing import Tracer
from workloads import WORKLOADS, load_package

BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pkg():
    return load_package()


def test_ladder_generator_is_deterministic():
    first = gen.digest(gen.ladder_graph(7, 12, 3, False))
    assert gen.digest(gen.ladder_graph(7, 12, 3, False)) == first
    assert gen.digest(gen.ladder_graph(8, 12, 3, False)) != first


def test_wide_generator_is_deterministic():
    size = pool.WIDE_SIZES[0]
    first = pool.wide_inputs(size, 5)
    again = pool.wide_inputs(size, 5)
    for key in ("base", "lift", "raw", "permuted", "control"):
        assert gen.digest(getattr(first, key)) == gen.digest(getattr(again, key))
    assert first.pairs == again.pairs
    assert gen.digest(pool.wide_inputs(size, 6).lift) != gen.digest(first.lift)


def test_pool_regenerates_and_stays_under_budget():
    from soficovers.relations import DEFAULT_MONOID_BUDGET

    data = pool.load()
    assert list(data["ladder"]) == [r.name for r in pool.RUNGS]
    assert list(data["wide"]) == [s.name for s in pool.WIDE_SIZES]
    for rung in pool.RUNGS:
        candidates = data["ladder"][rung.name]
        assert len(candidates) == pool.CANDIDATES
        for cand in candidates:
            g = pool.ladder_input(cand)
            assert 6 <= len(g[1]) == cand["vertices"] <= 14
            assert cand["monoid_elements"] < DEFAULT_MONOID_BUDGET
            assert ("fiber_core_vertices" in cand) == rung.gprime
    for size in pool.WIDE_SIZES:
        for cand in data["wide"][size.name]:
            g = pool.wide_input(size, cand)
            assert len(g.lift[1]) == cand["vertices"] == pool.WIDE_FOLD * cand["base_vertices"]
            assert [list(p) for p in g.pairs] == cand["pairs"]


def test_lift_follower_classes_are_fibers():
    base = gen.base_graph(3, 45, 3)
    lifted = gen.lift(base, 3, 4)
    classes = gen.follower_classes(lifted)
    by_base = {}
    for name, cls in zip(lifted[1], classes):
        by_base.setdefault(name.split(".")[0], set()).add(cls)
    assert all(len(c) == 1 for c in by_base.values())
    assert len(set(classes)) == len(set(gen.follower_classes(base)))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_op_list_is_fixed(workload, pkg, tmp_path):
    build = WORKLOADS[workload]
    first = [op.name for op in build(1, pkg, tmp_path)[0]]
    again = [op.name for op in build(1, pkg, tmp_path)[0]]
    other = [op.name for op in build(2, pkg, tmp_path)[0]]
    assert first == again
    if workload == "wide":  # vertex pairs are drawn from the seed
        first, other = ([n.rsplit("-", 2)[0] for n in names] for names in (first, other))
    assert first == other
    assert len(first) > harness.TAIL_BEYOND


def test_tail_rank_keeps_ten_beyond():
    assert harness.tail_rank(10) is None
    assert harness.tail_rank(11) == 0
    for n in (11, 36, 69, 100, 1000):
        rank = harness.tail_rank(n)
        assert n - rank - 1 == harness.TAIL_BEYOND


def test_tail_metric_on_known_latencies():
    latencies = [k / 1000.0 for k in range(1, 101)]  # 1..100 ms
    passes = [harness.PassResult(False, latencies, [1.0] * 100, []) for _ in range(3)]
    metrics, lines = harness.end_to_end(passes)
    assert metrics["op_tail_ms"]["value"] == pytest.approx(90.0)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(50.5)
    assert any("p90.0" in line for line in lines)


def _smallest_rung_ops(pkg, tmp_path):
    ops, _ = WORKLOADS["ladder"](3, pkg, tmp_path)
    return [op for op in ops if op.name.split("/")[0] in ("rr50", "rr70", "rr100")]


def test_corrupted_output_counts_as_failed(pkg, tmp_path):
    ops = _smallest_rung_ops(pkg, tmp_path)
    core_op = next(op for op in ops if op.name == "rr50/past-cover")

    def corrupted():
        core = core_op.run()
        return dataclasses.replace(core, members=core.members[:-1] + (frozenset(),))

    def broken():
        raise RuntimeError("boom")

    calls = []

    def flaky():  # right on the first pass, different afterwards
        calls.append(1)
        core = core_op.run()
        return core if len(calls) == 1 else dataclasses.replace(core, witnesses=core.witnesses[::-1])

    bad = [
        dataclasses.replace(core_op, name="corrupted", run=corrupted),
        dataclasses.replace(core_op, name="raises", run=broken),
        dataclasses.replace(core_op, name="flaky", run=flaky),
    ]
    passes = harness.measure(lambda: ops + bad, 0.0, False, Tracer())
    failed = {name for p in passes for name, _ in p.failures}
    assert failed == {"corrupted", "raises", "flaky"}
    attempted = sum(len(p.raw) for p in passes)
    per_pass = [sorted(name for name, _ in p.failures) for p in passes]
    assert per_pass[0] == ["corrupted", "raises"]
    assert per_pass[1] == ["corrupted", "flaky", "raises"]
    lines = harness.end_to_end(passes)[1]
    expected = sum(len(p) for p in per_pass) / attempted
    assert any(line.startswith("failed_frac") and f"{expected:.6g}" in line for line in lines)


def test_every_pass_sets_up_cold(tmp_path):
    """Each pass gets a newly imported package and newly built inputs, so
    a memo left by one pass cannot serve the next."""
    saved = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "soficovers"}
    seen = []

    def set_up():
        ops = run.set_up("ladder", 3, tmp_path, {})
        ops = [op for op in ops if op.name.startswith("rr50/")]
        seen.append((sys.modules["soficovers.covers"], ops))
        return ops

    try:
        passes = harness.measure(set_up, 0.0, False, Tracer())
    finally:
        sys.modules.update(saved)
    assert len(seen) == len(passes) >= harness.MIN_PASSES
    assert len({id(module) for module, _ in seen}) == len(seen)
    assert len({id(ops[0]) for _, ops in seen}) == len(seen)
    assert not any(p.failures for p in passes)
    assert all(p.setup_s > 0 for p in passes)


def test_result_is_freed_before_the_next_op():
    class Result:
        pass

    refs = []

    def first():
        result = Result()
        refs.append(weakref.ref(result))
        return result

    ops = [
        harness.Op("first", "first", first, lambda r: [], lambda r: 1),
        harness.Op("second", "second", lambda: refs[-1]() is None,
                   lambda freed: [] if freed else ["first result still alive"], lambda r: r),
    ]
    passes = harness.measure(lambda: ops, 0.0, False, Tracer())
    assert not any(p.failures for p in passes)


def test_tracer_records_nested_spans_and_restores(pkg, tmp_path):
    import soficovers
    from soficovers import covers

    original = covers.stable_core
    ops = _smallest_rung_ops(pkg, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert covers.stable_core is not original and soficovers.stable_core is covers.stable_core
    finally:
        tracer.uninstall()
    assert covers.stable_core is original and soficovers.stable_core is original
    wrapped = []

    def set_up():
        wrapped.append(covers.stable_core is not original)
        return ops

    passes = harness.measure(set_up, 0.0, True, tracer)
    assert wrapped == [False] * len(passes)  # installed only after set-up
    assert covers.stable_core is original and soficovers.stable_core is original
    traced = [p for p in passes if p.traced]
    layers = traced[0].layers
    core = layers["covers.stable_core"]
    assert core["calls"] >= 3 and 0 < core["self_ms"] < core["ms"]
    assert layers["relations.transition_monoid"]["calls"] >= core["calls"]
    assert traced[0].counts["covers.stable_sets"] > 0
    names = {s[0] for s in tracer.archive}
    assert {"ladder.past_cover", "covers.stable_core", "relations.transition_monoid"} <= names
    parents = {tracer.archive[s[3]][0] for s in tracer.archive
               if s[0] == "relations.transition_monoid" and s[3] >= 0}
    assert parents == {"covers.stable_core", "fibers.fiber_core"}
    metrics = harness.per_layer(passes)
    assert list(metrics) == list(harness.LAYER_METRICS)


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(harness.LAYER_METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == [harness.layer_unit(m) for m in harness.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_times_are_scaled_by_the_reference_loop():
    slow = harness.speed_scale([2 * harness.REFERENCE_NOMINAL_S] * 3)
    assert slow == pytest.approx(0.5)
    p = harness.PassResult(False, [0.010, 0.020], [0.5, 2.0], [])
    assert p.latencies == pytest.approx([0.005, 0.040])
    assert p.total == pytest.approx(0.045)
