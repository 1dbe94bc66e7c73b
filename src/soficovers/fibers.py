"""Fiber structure of a right-resolving presentation.

The bundle graph refines the subset construction: a set F steps along a
symbol only when every member emits it, and the edge remembers the whole
family of base edges it bundles.  Bi-infinite bundle paths are families
of base paths sharing one label sequence; the source sets of the paths in
one label fiber are cut out by intersecting the stabilized past sets with
their forward duals.

Fibers of periodic words are counted through the product with a cyclic
phase graph: after trimming, a disjoint union of cycles means one fiber
point per phase-zero vertex, and any backward branching means the fiber
is uncountable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import GraphFormatError, UnrealizableWordError, VerificationError
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    format_members,
    require_essential,
    require_right_resolving,
    transpose,
)
from .analysis import periodic_points
from .covers import FULL_MODE_VERTEX_CAP, StableCore, closure_words, stable_core
from .relations import (
    DEFAULT_MONOID_BUDGET,
    set_of,
    stabilized_domain,
    stabilized_range,
    symbol_relation,
    transition_monoid,
    word_relation,
)

INFINITE = "infinite"


@dataclass(frozen=True)
class BundleEdge:
    """One bundle-graph edge: parallel base edges with a common label.

    ``members`` are base edge indices; every vertex of the source set emits
    exactly one of them, and their targets fill the target set.
    """

    source: int
    symbol: int
    target: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class BundleGraph:
    """Subset graph under the every-member-emits rule."""

    base: LabeledGraph
    graph: LabeledGraph
    members: tuple[frozenset[int], ...]
    bundle_edges: tuple[BundleEdge, ...]
    mode: str

    def member_index(self) -> dict[frozenset[int], int]:
        return {m: i for i, m in enumerate(self.members)}


def _emit_table(base: LabeledGraph) -> dict[int, dict[int, int]]:
    """vertex -> symbol -> unique edge index (right-resolving base)."""
    require_right_resolving(base, "bundle graph")
    table: dict[int, dict[int, int]] = {v: {} for v in range(len(base.vertices))}
    for k, (u, a, _) in enumerate(base.edges):
        table[u][a] = k
    return table


def bundle_step(
    base: LabeledGraph,
    emit: dict[int, dict[int, int]],
    members: frozenset[int],
    symbol: int,
) -> Optional[tuple[frozenset[int], tuple[int, ...]]]:
    """Target set and member edges of the all-emit step, or None."""
    edges = []
    targets = set()
    for v in sorted(members):
        k = emit[v].get(symbol)
        if k is None:
            return None
        edges.append(k)
        targets.add(base.edges[k][2])
    return frozenset(targets), tuple(edges)


def _assemble_bundle(
    base: LabeledGraph, family: Iterable[frozenset[int]]
) -> tuple[LabeledGraph, tuple[frozenset[int], ...], tuple[BundleEdge, ...]]:
    emit = _emit_table(base)
    members = tuple(sorted(family, key=lambda m: (len(m), tuple(sorted(m)))))
    index = {m: i for i, m in enumerate(members)}
    plain = []
    bundles = []
    for i, mem in enumerate(members):
        for a in range(len(base.symbols)):
            step = bundle_step(base, emit, mem, a)
            if step is None:
                continue
            target, edge_members = step
            if target not in index:
                raise VerificationError(
                    f"bundle family not forward closed at "
                    f"{format_members(base, mem)} -{base.symbols[a]}->"
                )
            plain.append((i, a, index[target]))
            bundles.append(BundleEdge(i, a, index[target], edge_members))
    graph = LabeledGraph(
        base.symbols,
        tuple(format_members(base, m) for m in members),
        tuple(plain),
    )
    return graph, members, tuple(bundles)


def _forward_closure(
    base: LabeledGraph, starts: Iterable[frozenset[int]]
) -> set[frozenset[int]]:
    emit = _emit_table(base)
    seen = set(starts)
    todo = sorted(seen, key=lambda m: (len(m), tuple(sorted(m))))
    while todo:
        current = todo.pop(0)
        for a in range(len(base.symbols)):
            step = bundle_step(base, emit, current, a)
            if step is None:
                continue
            target = step[0]
            if target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def bundle_graph(
    base: LabeledGraph,
    mode: str = "full",
    seeds: Optional[Iterable[frozenset[int]]] = None,
) -> BundleGraph:
    """Build the all-emit subset graph.

    ``full`` enumerates every nonempty subset (base capped at 16
    vertices); ``seeded`` takes the forward closure of the given sets.
    """
    require_essential(base)
    require_right_resolving(base, "bundle graph")
    n = len(base.vertices)
    if mode == "full":
        if n > FULL_MODE_VERTEX_CAP:
            raise GraphFormatError(
                f"full bundle mode supports at most {FULL_MODE_VERTEX_CAP} "
                f"vertices, got {n}"
            )
        family: set[frozenset[int]] = {
            set_of(mask, n) for mask in range(1, 1 << n)
        }
    elif mode == "seeded":
        if seeds is None:
            raise GraphFormatError("seeded bundle mode needs seed sets")
        seed_sets = [frozenset(s) for s in seeds]
        for s in seed_sets:
            if not s or any(v not in range(n) for v in s):
                raise GraphFormatError(f"bad seed set {sorted(s)!r}")
        family = _forward_closure(base, seed_sets)
    else:
        raise GraphFormatError(f"unknown bundle mode {mode!r}")
    graph, members, bundles = _assemble_bundle(base, family)
    return BundleGraph(base, graph, members, bundles, mode)


def co_stable_sets(base: LabeledGraph, budget: int = DEFAULT_MONOID_BUDGET):
    """Start-vertex sets of right-infinite labeled paths, stabilized.

    Computed as the stable family of the transposed graph; the result is
    ordered by (size, members).
    """
    require_essential(base)
    rev = stable_core(transpose(base), budget)
    return rev.members


@dataclass(frozen=True)
class FiberData:
    """Per-phase past, forward, and fiber source sets of a periodic word."""

    word: PeriodicWord
    past_sets: tuple[frozenset[int], ...]
    forward_sets: tuple[frozenset[int], ...]
    fiber_sets: tuple[frozenset[int], ...]
    count: Union[int, str]


def fiber_count_periodic(base: LabeledGraph, p: PeriodicWord) -> Union[int, str]:
    """Number of bi-infinite paths labeled by the periodic word.

    Product with the cyclic phase graph, trimmed to its bi-essential part.
    A trimmed vertex with two incoming edges witnesses uncountably many
    fiber points ("infinite"); otherwise the product is a disjoint union
    of cycles and each phase-zero vertex carries exactly one fiber point.
    """
    require_essential(base)
    period = p.period
    n = len(base.vertices)
    nodes = {(v, k) for v in range(n) for k in range(period)}
    arcs = [
        ((u, k), (v, (k + 1) % period))
        for k in range(period)
        for u, a, v in base.edges
        if a == p.at(k)
    ]
    while True:
        outs = {x for x, _ in arcs}
        ins = {y for _, y in arcs}
        dead = {x for x in nodes if x not in outs or x not in ins}
        if not dead:
            break
        nodes -= dead
        arcs = [(x, y) for x, y in arcs if x in nodes and y in nodes]
    if not nodes:
        raise UnrealizableWordError(
            f"word {p.word!r} has no bi-infinite labeled path"
        )
    indeg: dict = {}
    for _, y in arcs:
        indeg[y] = indeg.get(y, 0) + 1
    if any(d >= 2 for d in indeg.values()):
        return INFINITE
    return sum(1 for (_, k) in nodes if k == 0)


def fiber_sets_on_periodic(base: LabeledGraph, p: PeriodicWord) -> FiberData:
    """Stabilized past and forward sets per phase; their intersections are
    exactly the source-vertex sets of the word's fiber paths."""
    require_essential(base)
    count = fiber_count_periodic(base, p)  # also checks realizability
    past = []
    forward = []
    for k in range(p.period):
        rel = word_relation(base, p.rotation_from(k))
        past.append(stabilized_range(rel))
        forward.append(stabilized_domain(rel))
    fiber = tuple(past[k] & forward[k] for k in range(p.period))
    if any(not f for f in fiber):
        raise VerificationError("realizable word produced an empty fiber set")
    return FiberData(p, tuple(past), tuple(forward), fiber, count)


@dataclass(frozen=True)
class FiberRay:
    """The periodic bundle path whose members are one label fiber."""

    word: PeriodicWord
    sets: tuple[frozenset[int], ...]
    member_edges: tuple[tuple[int, ...], ...]


def fiber_ray(base: LabeledGraph, p: PeriodicWord) -> FiberRay:
    """Bundle path through the fiber source sets of a periodic word.

    At each phase the members are every correctly-labeled base edge
    between consecutive fiber sets; the all-emit rule and exact source and
    target coverage are asserted.
    """
    data = fiber_sets_on_periodic(base, p)
    emit = _emit_table(base)
    member_edges = []
    for k in range(p.period):
        here = data.fiber_sets[k]
        there = data.fiber_sets[(k + 1) % p.period]
        step = bundle_step(base, emit, here, p.at(k))
        if step is None:
            raise VerificationError("fiber set fails the all-emit rule")
        target, edges = step
        if target != there:
            raise VerificationError("fiber sets drift from the bundle step")
        member_edges.append(edges)
    return FiberRay(p, data.fiber_sets, tuple(member_edges))


@dataclass(frozen=True)
class SeedRecord:
    kind: str  # "periodic" or "tail"
    detail: str
    members: frozenset[int]


@dataclass(frozen=True)
class FiberCore:
    """Forward closure of the realized fiber source sets in the bundle graph.

    ``provenance[i]`` explains vertex i: a SeedRecord, or a
    ("closure", parent vertex, symbol) step.  The seed census makes the
    bounded nature of the seed search visible.
    """

    base: LabeledGraph
    graph: LabeledGraph
    members: tuple[frozenset[int], ...]
    bundle_edges: tuple[BundleEdge, ...]
    seeds: tuple[SeedRecord, ...]
    provenance: tuple[object, ...]
    max_period: int
    max_tail: int

    def member_index(self) -> dict[frozenset[int], int]:
        return {m: i for i, m in enumerate(self.members)}


def _tail_seed_masks(
    base: LabeledGraph, max_tail: int, budget: int
) -> tuple[list[tuple[int, int, str]], list[tuple[int, int, str]]]:
    """Past-side and forward-side candidate masks with word budgets.

    Past side: endpoint sets ran(e . m) reached after an idempotent tail,
    i.e. the forward closure of the idempotent ranges; forward side:
    start sets dom(m . f) ahead of an idempotent head, i.e. the backward
    closure of the idempotent domains.  Both stop at words of length
    ``max_tail``.  Each mask keeps its shortest middle word m; on a tie
    the earlier idempotent in monoid order, then the alphabetically least
    m.  Its description spells the tail ``...e|m`` or the head ``|mf...``.
    """
    monoid = transition_monoid(base, budget)
    idempotents = [
        i for i in monoid.idempotent_indices()
        if not monoid.elements[i].is_empty()
    ]
    steps = [symbol_relation(base, a) for a in range(len(base.symbols))]

    def word_str(word: tuple[int, ...]) -> str:
        return "".join(base.symbols[a] for a in word)

    past = closure_words(
        steps,
        [monoid.elements[e].ran_mask() for e in idempotents],
        max_depth=max_tail,
    )
    forward = closure_words(
        [rel.transpose() for rel in steps],
        [monoid.elements[f].dom_mask() for f in idempotents],
        max_depth=max_tail,
        prepend=True,
    )
    past_list = [
        (mask, cost, f"...{word_str(monoid.words[idempotents[pos]])}|{word_str(m)}")
        for mask, (cost, pos, m) in past.items()
    ]
    forward_list = [
        (mask, cost, f"|{word_str(m)}{word_str(monoid.words[idempotents[pos]])}...")
        for mask, (cost, pos, m) in forward.items()
    ]
    past_list.sort()
    forward_list.sort()
    return past_list, forward_list


def fiber_core(
    base: LabeledGraph,
    max_period: int = 6,
    max_tail: int = 8,
    budget: int = DEFAULT_MONOID_BUDGET,
) -> FiberCore:
    """Bundle subgraph generated by realized fiber source sets.

    Seeds are the fiber sets of all periodic words up to ``max_period``
    and of the doubly-tailed points ``...u u w1|w2 v v...`` whose middle
    words fit in ``max_tail``; the vertex set is their forward closure.
    Both bounds are recorded, as the seed search is an explicitly bounded
    under-approximation of all realized fiber sets.
    """
    require_essential(base)
    require_right_resolving(base, "fiber core")
    n = len(base.vertices)
    seeds: list[SeedRecord] = []
    seen_seed: set[frozenset[int]] = set()

    for p in periodic_points(base, max_period):
        data = fiber_sets_on_periodic(base, p)
        text = "".join(base.symbols[a] for a in p.word)
        for k, fset in enumerate(data.fiber_sets):
            if fset not in seen_seed:
                seen_seed.add(fset)
                seeds.append(SeedRecord("periodic", f"({text})*@{k}", fset))

    past_list, forward_list = _tail_seed_masks(base, max_tail, budget)
    for p_mask, p_cost, p_desc in past_list:
        for f_mask, f_cost, f_desc in forward_list:
            if p_cost + f_cost > max_tail:
                continue
            mask = p_mask & f_mask
            if not mask:
                continue
            members = set_of(mask, n)
            if members not in seen_seed:
                seen_seed.add(members)
                seeds.append(SeedRecord("tail", f"{p_desc} & {f_desc}", members))

    family = _forward_closure(base, [s.members for s in seeds])
    graph, members, bundles = _assemble_bundle(base, family)
    index = {m: i for i, m in enumerate(members)}
    provenance: list[object] = [None] * len(members)
    for s in seeds:
        if provenance[index[s.members]] is None:
            provenance[index[s.members]] = s
    changed = True
    while changed:
        changed = False
        for be in bundles:
            if provenance[be.source] is not None and provenance[be.target] is None:
                provenance[be.target] = ("closure", be.source, be.symbol)
                changed = True
    if any(p is None for p in provenance):
        raise VerificationError("fiber core vertex with no provenance")
    return FiberCore(
        base,
        graph,
        members,
        bundles,
        tuple(seeds),
        tuple(provenance),
        max_period,
        max_tail,
    )


@dataclass(frozen=True)
class DominatedPath:
    """The bundle path squeezed under a stable-core path.

    ``sets[j]`` is the source set before step j; ``stable_from`` is the
    first index from which the dominated targets match the covering
    path's target sets exactly.
    """

    start_set: frozenset[int]
    sets: tuple[frozenset[int], ...]  # length = steps + 1
    member_edges: tuple[tuple[int, ...], ...]
    stable_from: int


def maximal_dominated_path(core: StableCore, path: Sequence[int]) -> DominatedPath:
    """Largest bundle path running under a stable-core path with its label.

    Starts from the source-set members that admit the whole label word and
    steps by the all-emit rule; the final target set always equals the
    covering path's, and from ``stable_from`` on every target set does.
    """
    if not path:
        raise GraphFormatError("need a nonempty stable-core path")
    for i in range(len(path) - 1):
        if core.graph.edges[path[i]][2] != core.graph.edges[path[i + 1]][0]:
            raise GraphFormatError("stable-core edges do not compose")
    base = core.base
    word = tuple(core.graph.edges[k][1] for k in path)
    start_members = core.members[core.graph.edges[path[0]][0]]
    admits = word_relation(base, word).dom()
    start = frozenset(start_members & admits)
    if not start:
        raise VerificationError("no member of the source set admits the label word")
    emit = _emit_table(base)
    sets = [start]
    member_edges = []
    current = start
    for a in word:
        step = bundle_step(base, emit, current, a)
        if step is None:
            raise VerificationError("dominated path lost the all-emit property")
        current, edges = step
        sets.append(current)
        member_edges.append(edges)
    gamma_targets = [core.members[core.graph.edges[k][2]] for k in path]
    if sets[-1] != gamma_targets[-1]:
        raise VerificationError("dominated path misses the covering target set")
    final_size = len(gamma_targets[-1])
    stable_from = len(path) - 1
    while stable_from > 0 and len(gamma_targets[stable_from - 1]) == final_size:
        stable_from -= 1
    for j in range(stable_from, len(path)):
        if sets[j + 1] != gamma_targets[j]:
            raise VerificationError(
                "dominated targets diverge inside the constant-size run"
            )
    return DominatedPath(start, tuple(sets), tuple(member_edges), stable_from)
