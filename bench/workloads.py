"""The benchmark's workloads: inputs from a seed, a fixed op list, checks.

Each ``build_*`` function takes the run's seed, the freshly imported
package and a scratch directory inside the checkout, and returns the op
list together with a record of the inputs it generated.  Ops reach the
package through module attributes at call time, so the tracer's wrappers
see every call.  The checks below are written against the benchmark's
own few-line reference routines wherever one is cheap enough.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from pathlib import Path
from types import SimpleNamespace

import generators as gen
import pool
from harness import Op

PAPER_COMMANDS = (
    "check", "subset", "past-cover", "future-cover", "extended-future-cover",
    "gpp", "gprime", "fibers", "iso", "export",
)
# Fixtures on which ``check`` finds a failing predicate and exits 1.
CHECK_FAILS = {"two_renamed_loops", "two_loops_vs_one"}
# The four headline construction sizes: (command, fixture) -> (vertices, edges).
HEADLINE = {
    ("subset", "example_a"): (7, 24),
    ("past-cover", "example_a"): (6, 21),
    ("gprime", "example_a"): (7, 18),
    ("extended-future-cover", "example_b"): (3, 8),
}


def load_package() -> SimpleNamespace:
    names = ("analysis", "cli", "covers", "fibers", "fixtures", "graphs", "io", "verification")
    return SimpleNamespace(**{n: importlib.import_module(f"soficovers.{n}") for n in names})


# ---------------------------------------------------------------- reference routines


class Steps:
    """The subset step of a graph, computed from its edge list."""

    def __init__(self, g) -> None:
        self.n = len(g.vertices)
        self.succ = [[[] for _ in range(self.n)] for _ in g.symbols]
        for u, a, v in g.edges:
            self.succ[a][u].append(v)

    def step(self, members: frozenset, a: int) -> frozenset:
        return frozenset(v for u in members for v in self.succ[a][u])

    def word(self, members: frozenset, word) -> frozenset:
        for a in word:
            members = self.step(members, a)
        return members

    def stable_end(self, tail, continuation) -> frozenset:
        """Endpoints after ...tail tail tail, then ``continuation``."""
        members = frozenset(range(self.n))
        while True:
            nxt = self.word(members, tail)
            if nxt == members:
                return self.word(members, continuation)
            members = nxt


def subset_edges(g, family) -> set:
    steps, index = Steps(g), {m: i for i, m in enumerate(family)}
    edges = set()
    for i, m in enumerate(family):
        for a in range(len(g.symbols)):
            target = steps.step(m, a)
            if target:
                edges.add((i, a, index.get(target, -1)))
    return edges


def named_edges(g) -> set:
    return {(g.vertices[u], g.symbols[a], g.vertices[v]) for u, a, v in g.edges}


def iso_problems(g1, g2, outcome) -> list[str]:
    """Apply an isomorphism's vertex map and compare edge sets exactly."""
    if not outcome.isomorphic or outcome.mapping is None:
        return ["graphs reported non-isomorphic"]
    m = outcome.mapping
    if sorted(m) != list(range(len(g2.vertices))) or len(m) != len(g1.vertices):
        return ["mapping is not a bijection"]
    image = {(m[u], g1.symbols[a], m[v]) for u, a, v in g1.edges}
    target = {(u, g2.symbols[a], v) for u, a, v in g2.edges}
    return [] if image == target and len(g1.edges) == len(g2.edges) else ["mapping does not carry edges onto edges"]


def cyclic_components(g) -> set[frozenset[int]]:
    """Strongly connected components that carry an edge (Kosaraju)."""
    n = len(g.vertices)
    succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
    loops = set()
    for u, _, v in g.edges:
        succ[u].append(v)
        pred[v].append(u)
        if u == v:
            loops.add(u)
    seen, order = [False] * n, []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    comp, comps = [-1] * n, []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        comp[root], todo, members = len(comps), [root], []
        while todo:
            v = todo.pop()
            members.append(v)
            for w in pred[v]:
                if comp[w] == -1:
                    comp[w] = comp[root]
                    todo.append(w)
        comps.append(members)
    return {frozenset(c) for c in comps if len(c) > 1 or c[0] in loops}


# ---------------------------------------------------------------- ladder


def build_ladder(seed: int, pkg: SimpleNamespace, workdir: Path) -> tuple[list[Op], dict]:
    ops, record = [], []
    for rung, cand in pool.choose(seed, pool.load(), "ladder", pool.RUNGS):
        g = gen.to_graph(pool.ladder_input(cand))
        record.append({"rung": rung.name, **cand})
        ops.extend(rung_ops(rung, cand, g, pkg))
    return ops, {"rungs": record}


def rung_ops(rung: pool.Rung, cand: dict, g, pkg: SimpleNamespace) -> list[Op]:
    covers, analysis, graphs, fibers = pkg.covers, pkg.analysis, pkg.graphs, pkg.fibers
    n = len(g.vertices)

    def check_op():
        essential, resolving = graphs.is_essential(g), graphs.check_right_resolving(g).ok
        if not resolving:
            return essential, resolving, None, None
        return essential, resolving, analysis.is_follower_separated(g), covers.check_regular(g)

    def check_check(out):
        essential, resolving, separated, regular = out
        problems = []
        if not essential or resolving != rung.right_resolving:
            problems.append(f"structure verdicts {essential}, {resolving}")
        if rung.right_resolving:
            if separated != cand["follower_separated"]:
                problems.append("follower-separated verdict differs from the record")
            if sum(regular.regular) != cand["regular_vertices"] or regular.ok != (cand["regular_vertices"] == n):
                problems.append("regular vertex count differs from the record")
            if any(good != (w is not None and v in w)
                   for v, (good, w) in enumerate(zip(regular.regular, regular.witness))):
                problems.append("regularity witness does not contain its vertex")
        return problems

    def check_summary(out):
        essential, resolving, separated, regular = out
        return essential, resolving, separated, regular and (regular.regular, regular.witness)

    def core_check(core):
        problems = []
        sizes = (len(core.members), len(core.monoid), len(core.monoid.idempotent_indices()))
        want = (cand["stable_sets"], cand["monoid_elements"], cand["idempotents"])
        if sizes != want:
            problems.append(f"stable sets, |M|, idempotents {sizes} != recorded {want}")
        steps = Steps(g)
        bad = [i for i, (m, (tail, cont)) in enumerate(zip(core.members, core.witnesses))
               if steps.stable_end(tail, cont) != m]
        if bad:
            problems.append(f"{len(bad)} witnesses do not replay to their stable set")
        if subset_edges(g, core.members) != set(core.graph.edges):
            problems.append("core edges are not the subset steps of its members")
        if len(core.monoid) <= pool.ORACLE_CEILING:
            oracle = covers.stable_sets_from_tails(g, cand["max_word"])
            if set(oracle) != set(core.members):
                problems.append("stable family disagrees with the tail-iteration oracle")
        return problems

    def future_check(fc):
        problems = []
        if len(fc.cover.vertices) != cand["future_classes"]:
            problems.append(f"{len(fc.cover.vertices)} future classes, recorded {cand['future_classes']}")
        members = sorted(v for cls in fc.bundle.classes for v in cls)
        if members != list(range(len(fc.core.members))):
            problems.append("classes do not partition the past cover")
        fv = fc.bundle.factor_vertex
        if {(fv[u], a, fv[v]) for u, a, v in fc.core.graph.edges} != set(fc.cover.edges):
            problems.append("cover edges are not the projected core edges")
        again = covers.future_cover(fc.cover).cover
        problems += [f"idempotence: {p}" for p in
                     iso_problems(again, fc.cover, analysis.graphs_isomorphic(again, fc.cover))]
        return problems

    def gprime_check(fcore):
        problems = []
        if len(fcore.members) != cand["fiber_core_vertices"]:
            problems.append(f"{len(fcore.members)} fiber-core vertices, recorded {cand['fiber_core_vertices']}")
        members = set(fcore.members)
        if any(s.members not in members for s in fcore.seeds) or frozenset() in members:
            problems.append("a seed set is missing from the fiber core")
        return problems

    prefix = rung.name
    ops = [
        Op(f"{prefix}/check", "ladder.check", check_op, check_check, check_summary),
        Op(f"{prefix}/past-cover", "ladder.past_cover", lambda: covers.stable_core(g),
           core_check, lambda core: (core.members, core.graph.edges, core.witnesses)),
        Op(f"{prefix}/future-cover", "ladder.future_cover", lambda: covers.future_cover(g),
           future_check, lambda fc: (fc.cover.edges, fc.bundle.factor_vertex)),
    ]
    if rung.gprime:
        ops.append(Op(f"{prefix}/gprime", "ladder.gprime", lambda: fibers.fiber_core(g),
                      gprime_check, lambda fcore: (fcore.members, fcore.graph.edges)))
    return ops


# ---------------------------------------------------------------- paper


def build_paper(seed: int, pkg: SimpleNamespace, workdir: Path) -> tuple[list[Op], dict]:
    rng = random.Random(seed)
    inputs = workdir / "paper"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = [_criterion_op(k, pkg) for k in range(1, 9)]
    record = []
    for name in pkg.fixtures.BASE_FIXTURES:
        g = pkg.fixtures.load_fixture(name)
        path, twin = inputs / f"{name}.json", inputs / f"{name}.permuted.json"
        path.write_text(json.dumps(pkg.io.graph_to_data(g)))
        triple = (g.symbols, g.vertices, tuple(sorted(named_edges(g))))
        twin.write_text(json.dumps(gen.to_data(gen.permuted(triple, rng.randrange(1 << 30)))))
        word = rng.choice(pkg.analysis.periodic_points(g, 2)).word
        period = ",".join(g.symbols[a] for a in word)
        record.append({"fixture": name, "vertices": len(g.vertices), "edges": len(g.edges),
                       "period": period})
        argv = {
            "check": ["check", str(path), "--json"],
            "subset": ["subset", str(path), "--mode", "full"],
            "past-cover": ["past-cover", str(path)],
            "future-cover": ["future-cover", str(path)],
            "extended-future-cover": ["extended-future-cover", str(path)],
            "gpp": ["gpp", str(path)],
            "gprime": ["gprime", str(path)],
            "fibers": ["fibers", str(path), "--period", period, "--json"],
            "iso": ["iso", str(path), str(twin), "--json"],
            "export": ["export", str(path), "--dot"],
        }
        ops.extend(_cli_op(cmd, name, argv[cmd], pkg) for cmd in PAPER_COMMANDS)
    return ops, {"fixtures": record}


def _criterion_op(number: int, pkg: SimpleNamespace) -> Op:
    verification = pkg.verification

    def check(result):
        return [] if result.ok else [f"{c.name}: {c.detail}" for c in result.failures()]

    return Op(f"criterion-{number}", f"verification.criterion_{number}",
              lambda: verification.run_criterion(number, verification.VerifyBounds()),
              check, lambda r: (r.ok, tuple((c.name, c.ok) for c in r.checks)))


def _cli_op(command: str, fixture: str, argv: list[str], pkg: SimpleNamespace) -> Op:
    cli = pkg.cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, out.getvalue()

    def check(result):
        code, text = result
        want = 1 if command == "check" and fixture in CHECK_FAILS else 0
        if code != want:
            return [f"exit code {code}, expected {want}"]
        if command == "export":
            return [] if text.startswith("digraph") else ["DOT output does not start with digraph"]
        data = json.loads(text)
        problems = []
        if command in ("check", "fibers", "iso"):
            if (data["status"] == "pass") != (want == 0):
                problems.append(f"report status {data['status']} with exit code {code}")
            if command == "iso" and "mapping" not in data.get("result", {}):
                problems.append("iso found no mapping onto a permuted copy")
        elif (command, fixture) in HEADLINE:
            got = (len(data["vertices"]), len(data["edges"]))
            if got != HEADLINE[(command, fixture)]:
                problems.append(f"headline count {got} != {HEADLINE[(command, fixture)]}")
        return problems

    return Op(f"{fixture}/{command}", f"cli.{command}", run, check, lambda r: r)


# ---------------------------------------------------------------- wide


def build_wide(seed: int, pkg: SimpleNamespace, workdir: Path) -> tuple[list[Op], dict]:
    ops, record = [], []
    for size, cand in pool.choose(seed, pool.load(), "wide", pool.WIDE_SIZES):
        record.append({"size": size.name, **cand})
        ops.extend(wide_ops(size.name, pool.wide_input(size, cand), pkg))
    return ops, {"graphs": record}


def wide_ops(prefix: str, triples: SimpleNamespace, pkg: SimpleNamespace) -> list[Op]:
    graphs, analysis, covers, io_mod = pkg.graphs, pkg.analysis, pkg.covers, pkg.io
    g = SimpleNamespace(**{key: gen.to_graph(getattr(triples, key))
                           for key in ("base", "lift", "raw", "permuted", "control")})
    lift = g.lift
    base_of = [name.split(".")[0] for name in lift.vertices]
    fold = pool.WIDE_FOLD

    def partition_check(blocks):
        problems = []
        if len(blocks) != len(g.base.vertices):
            problems.append(f"{len(blocks)} follower classes, base has {len(g.base.vertices)}")
        if any(len(b) != fold or len({base_of[v] for v in b}) != 1 for b in blocks):
            problems.append("a follower class is not the fiber of one base vertex")
        return problems

    def merged_check(bundle):
        cover = bundle.cover
        renamed = {(name.split(".")[0], a, w.split(".")[0]) for name, a, w in named_edges(cover)}
        problems = [] if renamed == named_edges(g.base) else ["merged cover is not the base graph"]
        outcome = analysis.graphs_isomorphic(cover, g.base)
        return problems + [f"merged vs base: {p}" for p in iso_problems(cover, g.base, outcome)]

    def components_check(info):
        want = cyclic_components(lift)
        problems = [] if {frozenset(c) for c in info.components} == want else ["components differ"]
        for comp, source in zip(info.components, info.is_source):
            inside = set(comp)
            entered = any(v in inside and u not in inside for u, _, v in lift.edges)
            if source == entered:
                problems.append("source flag wrong")
                break
        return problems

    def round_trip():
        text = json.dumps(io_mod.graph_to_data(lift))
        return graphs.build_graph(json.loads(text))

    def contains_op(u, v):
        want = gen.follower_included(triples.base, base_of[u], base_of[v])
        return Op(f"{prefix}/follower-contains-{u}-{v}", "wide.follower_contains",
                  lambda: analysis.follower_contains(lift, u, v),
                  lambda got: [] if got == want else [f"containment {got}, expected {want}"],
                  lambda got: got)

    ops = [
        Op(f"{prefix}/essentialize", "wide.essentialize", lambda: graphs.essentialize(g.raw),
           lambda out: [] if out == lift else ["trimmed graph differs from the lift"],
           lambda out: (out.vertices, out.edges)),
        Op(f"{prefix}/check-right-resolving", "wide.check_right_resolving",
           lambda: graphs.check_right_resolving(lift),
           lambda rep: [] if rep.ok and not rep.conflicts else ["lift reported not right-resolving"],
           lambda rep: (rep.ok, rep.conflicts)),
        Op(f"{prefix}/follower-partition", "wide.follower_partition",
           lambda: analysis.follower_partition(lift), partition_check, lambda blocks: blocks),
        Op(f"{prefix}/merged-graph", "wide.merged_graph", lambda: covers.merged_graph(lift),
           merged_check, lambda b: (b.cover.edges, b.factor_vertex)),
        Op(f"{prefix}/components", "wide.components_and_sources",
           lambda: analysis.components_and_sources(lift), components_check,
           lambda info: (info.components, info.is_source)),
        Op(f"{prefix}/iso-permuted", "wide.iso_permuted",
           lambda: analysis.graphs_isomorphic(lift, g.permuted),
           lambda out: iso_problems(lift, g.permuted, out), lambda out: out.mapping),
        Op(f"{prefix}/iso-control", "wide.iso_control",
           lambda: analysis.graphs_isomorphic(lift, g.control),
           lambda out: ["relabelled control reported isomorphic"] if out.isomorphic else [],
           lambda out: out.isomorphic),
        *(contains_op(u, v) for u, v in triples.pairs),
        Op(f"{prefix}/round-trip", "io.round_trip", round_trip,
           lambda back: [] if back == lift else ["round trip changed the graph"],
           lambda back: (back.vertices, back.edges)),
        Op(f"{prefix}/export-dot", "wide.export_dot", lambda: io_mod.export_dot(lift),
           lambda text: [] if text.startswith("digraph") and text.count("\n") == 2 + len(lift.vertices) + len(lift.edges)
           else ["DOT output has the wrong shape"], lambda text: text),
    ]
    return ops


WORKLOADS = {"ladder": build_ladder, "paper": build_paper, "wide": build_wide}
