"""The shared edge tables, the trimming worklist and the mask-based bundle
graphs against the code they replace.

``graphs.trim`` removes dead nodes with a degree-counting worklist and
``follower_contains`` searches pairs of classes on the follower quotient.
The references below keep the earlier code: the round-based fixpoint
trimming loop (once inside ``essentialize`` and ``fiber_count_periodic``)
and the containment search on the original graph that scans every edge
for each subset step.  Inputs are seeded random graphs with dead-end
tendrils on both sides, half of them right-resolving; containment also
runs on cyclic lifts of the fixtures, whose follower classes hold more
than one vertex.  ``merged_graph`` returns the follower quotient kept on
the graph; the reference keeps the merge it replaced, which looked each
edge's cover edge up by source class and label and listed each class by
appending vertices in order.  ``check_regular``'s verdicts and witnesses are held to
the first stable set whose members all pass the reference search.

``bundle_graph`` and ``fiber_core`` close and assemble vertex masks with
the subset graphs' closure and assembly.  The references keep the
frozenset all-emit step, breadth-first closure and bundle assembly they
replace; both routes must give the same members, edges, member edges and
seeds on the fixtures and on seeded right-resolving graphs of up to 8
vertices.  The bundle ray of a periodic word (``fibers._fiber_ray``) and
``maximal_dominated_path``, a reference route kept in ``test_fibers.py``,
step by the same all-emit step: the frozenset step must take each fiber
set of the ray to the next, and must give each of the dominated path's
target sets and member-edge tuples.

The past and forward sets of a periodic word come from one walk of the
word's masks (``analysis.past_masks`` and ``forward_masks``).  The
reference composes each rotation's relation and takes its stabilized
range and domain, and it decides realizability by the idempotent power,
with the word relations of ``test_relations.py``;
``maximal_dominated_path`` is held to the domain of the word's relation.

``follower_partition`` splits vertex masks by the predecessor masks of a
splitter class (Hopcroft's minimization), and ``graphs_isomorphic``, on
inputs that are not right-resolving, colours vertices with a refinement
routine on per-vertex arc lists, which splits classes by arc counts into
a splitter class.  The
references keep the Moore loop that ranked signatures with
``list.index`` and the isomorphism colouring that rescanned every edge
for every vertex in every round, with its edge-scanning backtracking;
``rank_rounds`` keeps the routine's earlier body, which re-ranked every
vertex's signature each round, and must give the same partition on
random tagged arc lists with repeated arcs.  The follower partition is
also held to the Moore loop on random right-resolving graphs in which a
vertex may lack some symbols.  Each graph is compared with two shuffled
twins and with one-edge-changed controls; cyclic lifts of the fixtures
have nontrivial automorphisms, so they also pin which mapping is found,
and a 10-fold lift has follower classes of 10 vertices.  Looped rings
need one refinement round per vertex, and split to single vertices
through many smaller pieces.  On the disjoint union of two arc lists the
refinement stops at the first class with unequal numbers of vertices
from the two; it must stop exactly when ``rank_rounds`` ends with such a
class, and on the lifts' one-edge-changed controls it must stop after
fewer splitter pops than the full refinement makes.

Between right-resolving graphs ``graphs_isomorphic`` takes the forced
route: the union's follower classes by the same mask splitting, then the
images that one root's image forces along out-edges.  A control whose
edge moved must refine exactly once, on the route the pair takes, and
alphabets that differ by a symbol on no edge must not matter on either
route.  A hypothesis property holds the forced route to the reference
colouring on drawn right-resolving graphs with sources, sinks, isolated
vertices and repeated parts, each against a relisted, a retargeted and a
relabelled copy.  Where automorphisms exist the two may return different
mappings, so each mapping is checked edge by edge.  A pinned case makes
the search go back over roots.

``periodic_points`` and ``codes._edge_cycles`` generate only Lyndon
words, pruned by a walk along each prefix.  The references list every
path word or edge path up to the bound and keep the primitive ones in
least-rotation form; both routes must give the same lists up to period 6.
The tail oracle pushes each distinct stabilized range through the
relations once; the reference pushes every tail's range, and the two
dicts, witnesses and order included, must be equal.

``transition_monoid`` searches breadth-first over strings of interned
row ids, bytes or, past 256 ids, tuples, and flags an idempotent by
walking its own word along the right Cayley graph that the search
records.  The reference composes ``BoolRelation``s from a popped queue and
flags idempotents by self-composition; elements, words and flags must
agree on the walk cases, on lifts of up to 20 vertices and on two
disjoint unions whose rows take more than 256 ids.

``components_and_sources`` finds the components by Tarjan's algorithm.
The reference reads them off plain reachability sets: a vertex lies on a
component when it reaches itself by a nonempty path, its component is
every vertex it reaches that reaches it back, and a component is a
source when every vertex that reaches it lies in it.  Both must agree on
the fixtures, their stable cores, the cyclic lifts, the random graphs
with tendrils and drawn graphs of up to 12 vertices, many with self-loops,
sinks and tendrils.  A chain of 5,000 vertices into a 3-cycle, too long
for the quadratic reference, is checked directly.
"""

from __future__ import annotations

import random
import sys
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soficovers import BASE_FIXTURES, analysis, load_fixture
from soficovers.analysis import (
    IsomorphismResult,
    _refine,
    components_and_sources,
    follower_contains,
    follower_partition,
    forward_masks,
    graphs_isomorphic,
    past_masks,
    periodic_points,
    require_realizable,
)
from soficovers.codes import _edge_cycles, higher_block
from soficovers.covers import check_regular, merged_graph, stable_core, stable_sets_from_tails
from soficovers.errors import (
    BudgetExceededError,
    EmptyShiftError,
    UnrealizableWordError,
    VerificationError,
)
from soficovers.fibers import (
    INFINITE,
    SeedRecord,
    _fiber_masks,
    _fiber_ray,
    _tail_seed_masks,
    bundle_graph,
    fiber_core,
    fiber_count_periodic,
    fiber_sets_on_periodic,
)
from soficovers.graphs import (
    LabeledGraph,
    check_right_resolving,
    edge_lookup,
    essentialize,
    graph_from_parts,
    least_rotation,
    normalize_periodic,
    paths_of_length,
    primitive_root,
    require_essential,
    require_right_resolving,
    trim,
)
from soficovers.relations import (
    BoolRelation,
    _row_table,
    mask_of,
    set_of,
    stabilized_range,
    symbol_relation,
    transition_monoid,
)
from soficovers.verification import VerifyBounds, random_right_resolving_graphs
from test_closure_routes import random_essential_graphs
from test_fibers import maximal_dominated_path
from test_golden import cyclic_lift, looped_ring
from test_graphs import words_up_to
from test_relations import (
    dom_mask,
    is_empty,
    is_idempotent,
    omega_power,
    stabilized_domain,
    word_relation,
)

GRAPHS_PER_KIND = 12
MAX_WORD = 3
BUNDLE_GRAPHS = 16
MONOID_CAP = 1500
WALK_WORD = 4
LYNDON_PERIOD = 6
DEEP_PERIOD = 2000  # deeper than the default recursion limit
WALK_GRAPHS = 6
DOMINATED_PATH = 3
LIFTS = ((2, 0), (3, 1))  # (fold, step): two disjoint sheets, a connected 3-fold lift


def reference_trim(nodes, arcs):
    """Drop every node with no out- or no in-arc, round by round."""
    nodes = set(nodes)
    arcs = list(arcs)
    while True:
        outs = {x for x, _ in arcs}
        ins = {y for _, y in arcs}
        dead = {x for x in nodes if x not in outs or x not in ins}
        if not dead:
            return nodes
        nodes -= dead
        arcs = [(x, y) for x, y in arcs if x in nodes and y in nodes]


def reference_essentialize(g):
    alive = reference_trim(range(len(g.vertices)), [(u, v) for u, _, v in g.edges])
    if not alive:
        raise EmptyShiftError("no bi-infinite paths: every vertex was trimmed")
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    return LabeledGraph(
        g.symbols,
        tuple(g.vertices[v] for v in keep),
        tuple((remap[u], a, remap[v]) for u, a, v in g.edges if u in alive and v in alive),
    )


def reference_fiber_count(g, p):
    period = p.period
    nodes = {(v, k) for v in range(len(g.vertices)) for k in range(period)}
    arcs = [
        ((u, k), (v, (k + 1) % period))
        for k in range(period)
        for u, a, v in g.edges
        if a == p.at(k)
    ]
    nodes = reference_trim(nodes, arcs)
    if not nodes:
        raise UnrealizableWordError(f"word {p.word!r} has no bi-infinite labeled path")
    indeg = {}
    for x, y in arcs:
        if x in nodes and y in nodes:
            indeg[y] = indeg.get(y, 0) + 1
    if any(d >= 2 for d in indeg.values()):
        return INFINITE
    return sum(1 for (_, k) in nodes if k == 0)


def reference_follower_contains(g, u, v):
    """Pair search with the subset step as a scan over every edge."""
    delta = {(w, a): x for w, a, x in g.edges}
    start = (u, frozenset([v]))
    seen = {start}
    todo = [start]
    while todo:
        u1, vs = todo.pop()
        for a in sorted(a for (w, a) in delta if w == u1):
            step = frozenset(x for w, b, x in g.edges if b == a and w in vs)
            if not step:
                return False
            state = (delta[(u1, a)], step)
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return True


def tendril_graph(seed: int, right_resolving: bool) -> LabeledGraph:
    """A random core with chains that lead into it and chains that dead-end.

    Core symbols are ``0..s-1``; the chains use the extra symbol ``t``, and
    each vertex emits at most one ``t`` edge, so a right-resolving core
    keeps the whole graph right-resolving.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    s = rng.randint(1, 3)
    core = [f"c{i}" for i in range(n)]
    triples = set()
    for u in core:
        for a in range(s):
            if rng.random() < 0.35:
                continue
            width = 1 if right_resolving else rng.randint(1, 2)
            for v in rng.sample(core, width):
                triples.add((u, str(a), v))
    vertices = list(core)
    emitters = rng.sample(core, rng.randint(0, min(2, n)))
    for i, u in enumerate(emitters):  # dead-end chains out of the core
        at = u
        for j in range(rng.randint(1, 3)):
            nxt = f"out{i}.{j}"
            vertices.append(nxt)
            triples.add((at, "t", nxt))
            at = nxt
    for i in range(rng.randint(0, 2)):  # source chains into the core
        chain = [f"in{i}.{j}" for j in range(rng.randint(1, 3))]
        vertices.extend(chain)
        for a, b in zip(chain, chain[1:] + [rng.choice(core)]):
            triples.add((a, "t", b))
    order = list(range(len(vertices)))
    rng.shuffle(order)
    edges = sorted(triples)
    rng.shuffle(edges)
    return graph_from_parts(
        [str(a) for a in range(s)] + ["t"], [vertices[i] for i in order], edges
    )


CASES = [
    (f"{'rr' if rr else 'nrr'}-{i}", tendril_graph(1000 * rr + i, rr))
    for rr in (True, False)
    for i in range(GRAPHS_PER_KIND)
]


def test_generator_makes_both_kinds_with_tendrils():
    kinds = {check_right_resolving(g).ok for _, g in CASES}
    assert kinds == {True, False}
    assert all(check_right_resolving(g).ok for name, g in CASES if name.startswith("rr"))
    trimmed = [len(reference_trim(range(len(g.vertices)), [(u, v) for u, _, v in g.edges]))
               for _, g in CASES]
    assert sum(t < len(g.vertices) for t, (_, g) in zip(trimmed, CASES)) >= len(CASES) // 2


@pytest.mark.parametrize("name,g", CASES, ids=[name for name, _ in CASES])
def test_trim_and_essentialize_match_fixpoint_loop(name, g):
    arcs = [(u, v) for u, _, v in g.edges]
    assert trim(range(len(g.vertices)), arcs) == reference_trim(range(len(g.vertices)), arcs)
    try:
        want = reference_essentialize(g)
    except EmptyShiftError:
        with pytest.raises(EmptyShiftError):
            essentialize(g)
        return
    assert essentialize(g) == want


def essential_cases():
    out = [(name, load_fixture(name)) for name in BASE_FIXTURES]
    for name, g in CASES:
        try:
            out.append((name, essentialize(g)))
        except EmptyShiftError:
            continue
    return out


ESSENTIAL = essential_cases()


@pytest.mark.parametrize("name,g", ESSENTIAL, ids=[name for name, _ in ESSENTIAL])
def test_fiber_count_matches_fixpoint_loop(name, g):
    words = {
        normalize_periodic(word).word
        for length in range(1, MAX_WORD + 1)
        for word in product(range(len(g.symbols)), repeat=length)
    }
    for word in sorted(words):
        p = normalize_periodic(word)
        try:
            want = reference_fiber_count(g, p)
        except UnrealizableWordError:
            with pytest.raises(UnrealizableWordError):
                fiber_count_periodic(g, p)
            continue
        assert fiber_count_periodic(g, p) == want, word


# Cyclic lifts of the fixtures: every fiber over a base vertex lies in one
# follower class, so these have classes of more than one vertex.
LIFTED = [
    (f"{name}.x{fold}s{step}", cyclic_lift(load_fixture(name), fold, step))
    for name in BASE_FIXTURES
    for fold, step in LIFTS
]
RESOLVING = [(name, g) for name, g in ESSENTIAL + LIFTED if check_right_resolving(g).ok]


def test_containment_cases_cover_every_kind_of_pair():
    """Pairs in different classes with and without containment, and pairs
    of distinct vertices in one class."""
    kinds = set()
    for _, g in RESOLVING:
        class_of = {v: c for c, block in enumerate(follower_partition(g)) for v in block}
        kinds |= {
            (class_of[u] == class_of[v], reference_follower_contains(g, u, v))
            for u, v in product(range(len(g.vertices)), repeat=2)
            if u != v
        }
    assert kinds == {(False, True), (False, False), (True, True)}


@pytest.mark.parametrize("name,g", RESOLVING, ids=[name for name, _ in RESOLVING])
def test_follower_contains_matches_edge_scan(name, g):
    n = len(g.vertices)
    got = [[follower_contains(g, u, v) for v in range(n)] for u in range(n)]
    want = [[reference_follower_contains(g, u, v) for v in range(n)] for u in range(n)]
    assert got == want


def reference_regular_witnesses(g):
    """Per vertex, the first stable set holding it whose every member's
    follower set lies inside the vertex's, by the edge-scanning search."""
    return tuple(
        next(
            (
                members
                for members in stable_core(g).members
                if v in members
                and all(reference_follower_contains(g, u, v) for u in members)
            ),
            None,
        )
        for v in range(len(g.vertices))
    )


def test_regularity_cases_include_irregular_vertices():
    assert any(None in reference_regular_witnesses(g) for _, g in RESOLVING)


@pytest.mark.parametrize("name,g", RESOLVING, ids=[name for name, _ in RESOLVING])
def test_check_regular_matches_reference(name, g):
    witnesses = reference_regular_witnesses(g)
    report = check_regular(g)
    assert report.witness == witnesses
    assert report.regular == tuple(w is not None for w in witnesses)
    assert report.ok == (None not in witnesses)


def reference_merged_graph(origin):
    """The follower merge as ``merged_graph`` built it from the quotient's
    vertex factor and cover: each edge's cover edge looked up by its
    source class and label, and each class listed by appending vertices
    in order."""
    partition = follower_partition(origin)
    factor = [0] * len(origin.vertices)
    for c, block in enumerate(partition):
        for v in block:
            factor[v] = c
    edges = dict.fromkeys((factor[u], a, factor[v]) for u, a, v in origin.edges)
    names = tuple(origin.vertices[min(block)] for block in partition)
    cover = LabeledGraph(origin.symbols, names, tuple(edges))
    edge_at = cover.index.edge_at
    classes = [[] for _ in cover.vertices]
    for v, c in enumerate(factor):
        classes[c].append(v)
    return (
        cover,
        tuple(factor),
        tuple(edge_at[(factor[u], a)] for u, a, _ in origin.edges),
        tuple(map(tuple, classes)),
    )


@pytest.mark.parametrize("name,g", RESOLVING, ids=[name for name, _ in RESOLVING])
def test_merged_graph_matches_reference(name, g):
    bundle = merged_graph(g)
    got = (bundle.cover, bundle.factor_vertex, bundle.factor_edge, bundle.classes)
    assert got == reference_merged_graph(g)


def reference_bundle_step(base, emit, members, symbol):
    """Target set and member edges of the all-emit step, or None."""
    edges = []
    targets = set()
    for v in sorted(members):
        k = emit.get((v, symbol))
        if k is None:
            return None
        edges.append(k)
        targets.add(base.edges[k][2])
    return frozenset(targets), tuple(edges)


def reference_forward_closure(base, starts):
    emit = edge_lookup(base)
    seen = set(starts)
    todo = sorted(seen, key=lambda m: (len(m), sorted(m)))
    while todo:
        current = todo.pop(0)
        for a in range(len(base.symbols)):
            step = reference_bundle_step(base, emit, current, a)
            if step is not None and step[0] not in seen:
                seen.add(step[0])
                todo.append(step[0])
    return seen


def reference_assemble_bundle(base, family):
    """(vertex names, edges, members, member edges) of the bundle graph."""
    emit = edge_lookup(base)
    members = tuple(sorted(family, key=lambda m: (len(m), sorted(m))))
    index = {m: i for i, m in enumerate(members)}
    edges = []
    member_edges = []
    for i, mem in enumerate(members):
        for a in range(len(base.symbols)):
            step = reference_bundle_step(base, emit, mem, a)
            if step is None:
                continue
            target, edge_members = step
            edges.append((i, a, index[target]))
            member_edges.append(edge_members)
    names = tuple(
        "{" + ",".join(base.vertices[v] for v in sorted(m)) + "}" for m in members
    )
    return names, tuple(edges), members, tuple(member_edges)


def reference_fiber_core(base, max_tail, budget):
    """(assembly, seeds) of the fiber core, over frozensets."""
    n = len(base.vertices)
    seeds = []
    seen = set()
    past_list, forward_list = _tail_seed_masks(base, max_tail, budget)
    for p_mask, p_cost, p_desc in past_list:
        for f_mask, f_cost, f_desc in forward_list:
            mask = p_mask & f_mask
            members = frozenset(v for v in range(n) if mask >> v & 1)
            if p_cost + f_cost <= max_tail and members and members not in seen:
                seen.add(members)
                seeds.append(SeedRecord(f"{p_desc} & {f_desc}", members))
    assembly = reference_assemble_bundle(
        base, reference_forward_closure(base, [s.members for s in seeds])
    )
    return assembly, tuple(seeds)


def assembled(bundle):
    return bundle.graph.vertices, bundle.graph.edges, bundle.members, bundle.member_edges


BUNDLE_CASES = [(name, load_fixture(name)) for name in BASE_FIXTURES] + [
    (f"rr8-{i}", g)
    for i, g in enumerate(random_right_resolving_graphs(BUNDLE_GRAPHS, 15, max_vertices=8))
]
BUNDLE_CASES = [(name, g) for name, g in BUNDLE_CASES if check_right_resolving(g).ok]


def test_bundle_cases_reach_eight_vertices():
    assert max(len(g.vertices) for _, g in BUNDLE_CASES) == 8


@pytest.mark.parametrize("name,g", BUNDLE_CASES, ids=[name for name, _ in BUNDLE_CASES])
def test_bundle_graphs_match_frozenset_routes(name, g):
    n = len(g.vertices)
    full = [frozenset(v for v in range(n) if mask >> v & 1) for mask in range(1, 1 << n)]
    assert assembled(bundle_graph(g, "full")) == reference_assemble_bundle(g, full)
    rng = random.Random(name)
    seeds = [
        frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)
    ] + [frozenset({n - 1})]
    want = reference_assemble_bundle(g, reference_forward_closure(g, seeds))
    assert assembled(bundle_graph(g, "seeded", seeds)) == want
    try:
        fcore = fiber_core(g, budget=MONOID_CAP)
    except BudgetExceededError:
        return
    assembly, seed_records = reference_fiber_core(g, 8, MONOID_CAP)
    assert assembled(fcore) == assembly
    assert fcore.seeds == seed_records


@pytest.mark.parametrize("max_tail", [0, 8])
@pytest.mark.parametrize("name,g", BUNDLE_CASES, ids=[name for name, _ in BUNDLE_CASES])
def test_periodic_fiber_sets_are_tail_seeds(name, g, max_tail):
    """Every phase's fiber set of every periodic word up to period 6 is a
    seed: the tailed point with no middle words, e = f the idempotent
    power of the word's rotation."""
    try:
        fcore = fiber_core(g, max_tail, MONOID_CAP)
    except BudgetExceededError:
        return
    seeds = {record.members for record in fcore.seeds}
    for p in periodic_points(g, 6):
        for k, fset in enumerate(fiber_sets_on_periodic(g, p).fiber_sets):
            assert fset in seeds, (p.word, k)


@pytest.mark.parametrize("name,g", BUNDLE_CASES, ids=[name for name, _ in BUNDLE_CASES])
def test_bundle_paths_match_frozenset_step(name, g):
    """The fiber sets of fiber rays (every periodic word up to period 4)
    and the target sets and member edges of maximal dominated paths, step
    by step."""
    emit = edge_lookup(g)
    for p in periodic_points(g, WALK_WORD):
        fiber = _fiber_masks(g, p)[2]
        _fiber_ray(g, p, fiber)
        sets = [set_of(mask) for mask in fiber]
        for k in range(p.period):
            step = reference_bundle_step(g, emit, sets[k], p.at(k))
            assert step is not None and step[0] == sets[(k + 1) % p.period], p.word
    try:
        core = stable_core(g, MONOID_CAP)
    except BudgetExceededError:
        return
    for length in range(1, DOMINATED_PATH + 1):
        for path in paths_of_length(core.graph, length):
            try:
                dominated = maximal_dominated_path(core, path)
            except VerificationError as exc:
                assert "admits" in str(exc)
                continue
            word = [core.graph.edges[k][1] for k in path]
            for j, a in enumerate(word):
                want = (dominated.sets[j + 1], dominated.member_edges[j])
                assert reference_bundle_step(g, emit, dominated.sets[j], a) == want, path


def reference_phase_masks(g, word):
    """Past and forward masks per phase from each rotation's relation."""
    rels = [word_relation(g, word[k:] + word[:k]) for k in range(len(word))]
    return [stabilized_range(r) for r in rels], [stabilized_domain(r) for r in rels]


def reference_realizable(g, word):
    return not is_empty(omega_power(word_relation(g, word)))


def reference_periodic_points(g, max_period):
    found = {
        normalize_periodic(word).word
        for word in words_up_to(g, max_period)
        if reference_realizable(g, normalize_periodic(word).word)
    }
    return sorted(found, key=lambda w: (len(w), w))


WALK_CASES = (
    [(name, load_fixture(name)) for name in BASE_FIXTURES]
    + [(f"rr-{i}", g) for i, g in enumerate(random_essential_graphs(WALK_GRAPHS, 11, True))]
    + [(f"nrr-{i}", g) for i, g in enumerate(random_essential_graphs(WALK_GRAPHS, 13, False))]
)


def test_walk_cases_cover_both_kinds_and_unrealizable_words():
    assert {check_right_resolving(g).ok for _, g in WALK_CASES} == {True, False}
    assert any(
        not reference_realizable(g, word)
        for _, g in WALK_CASES
        for word in product(range(len(g.symbols)), repeat=2)
    )


@pytest.mark.parametrize("name,g", WALK_CASES, ids=[name for name, _ in WALK_CASES])
def test_phase_walk_matches_rotation_relations(name, g):
    """Every word up to length 4, primitive or not, realizable or not."""
    for length in range(1, WALK_WORD + 1):
        for word in product(range(len(g.symbols)), repeat=length):
            past, forward = reference_phase_masks(g, word)
            assert past_masks(g, word) == past, word
            assert forward_masks(g, word) == forward, word
            assert bool(past[0]) == reference_realizable(g, word), word
    for p in periodic_points(g, 2):
        assert require_realizable(g, p) == reference_phase_masks(g, p.word)[0]


@pytest.mark.parametrize("name,g", WALK_CASES, ids=[name for name, _ in WALK_CASES])
def test_periodic_points_match_idempotent_filter(name, g):
    got = [p.word for p in periodic_points(g, WALK_WORD)]
    assert got == reference_periodic_points(g, WALK_WORD)
    for word in product(range(len(g.symbols)), repeat=3):
        p = normalize_periodic(word)
        if not reference_realizable(g, p.word):
            with pytest.raises(UnrealizableWordError):
                require_realizable(g, p)


def reference_edge_cycles(g, max_period):
    """Every closed edge path up to the bound, kept when primitive, as its
    least rotation."""
    found = set()
    for length in range(1, max_period + 1):
        for p in paths_of_length(g, length):
            if g.edges[p[-1]][2] != g.edges[p[0]][0]:
                continue
            if primitive_root(p) != p:
                continue
            found.add(least_rotation(p))
    return sorted(found)


@pytest.mark.parametrize("name", BASE_FIXTURES)
def test_periodic_points_match_reference_to_period_six(name):
    g = load_fixture(name)
    got = [p.word for p in periodic_points(g, LYNDON_PERIOD)]
    assert got == reference_periodic_points(g, LYNDON_PERIOD)


CYCLE_CASES = WALK_CASES + [
    (f"{name}.2block", higher_block(load_fixture(name), 2).graph_h) for name in BASE_FIXTURES
]


@pytest.mark.parametrize("name,g", CYCLE_CASES, ids=[name for name, _ in CYCLE_CASES])
def test_edge_cycles_match_rotation_filter(name, g):
    assert _edge_cycles(g, LYNDON_PERIOD) == reference_edge_cycles(g, LYNDON_PERIOD)


def test_enumerations_at_zero_and_deep_bounds():
    """A bound below 1 gives nothing; a bound past the recursion limit
    still finds the one loop of ``single_loop``."""
    g = load_fixture("single_loop")
    for bound in (0, -1):
        assert periodic_points(g, bound) == []
        assert _edge_cycles(g, bound) == []
    assert periodic_points(g, DEEP_PERIOD) == [normalize_periodic((0,))]
    assert _edge_cycles(g, DEEP_PERIOD) == [(0,)]


def reference_tail_oracle(base, max_len):
    """Every tail's stabilized range pushed through every relation, even
    when an earlier tail had the same range."""
    n = len(base.vertices)
    generators = [symbol_relation(base, a) for a in range(len(base.symbols))]
    by_rows = {}
    layer = []
    for a, rel in enumerate(generators):
        if rel.rows not in by_rows:
            by_rows[rel.rows] = (a,)
            layer.append(rel)
    for _ in range(max_len - 1):
        nxt = []
        for rel in layer:
            for a, gen in enumerate(generators):
                comp = rel.compose(gen)
                if comp.rows not in by_rows:
                    by_rows[comp.rows] = by_rows[rel.rows] + (a,)
                    nxt.append(comp)
        layer = nxt
        if not layer:
            break
    relations = [(BoolRelation(n, rows), word) for rows, word in by_rows.items()]
    relations.sort(key=lambda rw: (len(rw[1]), rw[1]))
    result = {}
    for tail_rel, u_word in relations:
        stable = stabilized_range(tail_rel)
        if not stable:
            continue
        if stable not in result:
            result[stable] = (u_word, ())
        for cont_rel, v_word in relations:
            mask = cont_rel.image(stable)
            if mask and mask not in result:
                result[mask] = (u_word, v_word)
    return {frozenset(v for v in range(n) if mask >> v & 1): w for mask, w in result.items()}


ORACLE_CASES = (
    [(name, load_fixture(name)) for name in BASE_FIXTURES]
    + [
        (f"criterion3-{i}", g)
        for i, g in enumerate(
            random_right_resolving_graphs(VerifyBounds.random_graphs, VerifyBounds.random_seed)
        )
    ]
    + [(name, g) for name, g in WALK_CASES if not check_right_resolving(g).ok]
)


@pytest.mark.parametrize("name,g", ORACLE_CASES, ids=[name for name, _ in ORACLE_CASES])
def test_tail_oracle_matches_all_tails_push(name, g):
    """The whole dict, witnesses and insertion order included."""
    max_len = 2 * len(transition_monoid(g))
    got = stable_sets_from_tails(g, max_len)
    assert list(got.items()) == list(reference_tail_oracle(g, max_len).items())


WALK_RESOLVING = [(name, g) for name, g in WALK_CASES if check_right_resolving(g).ok]


@pytest.mark.parametrize("name,g", WALK_RESOLVING, ids=[name for name, _ in WALK_RESOLVING])
def test_dominated_path_start_is_word_domain(name, g):
    core = stable_core(g, MONOID_CAP)
    for length in range(1, DOMINATED_PATH + 1):
        for path in paths_of_length(core.graph, length):
            word = tuple(core.graph.edges[k][1] for k in path)
            source = mask_of(core.members[core.graph.edges[path[0]][0]])
            want = source & dom_mask(word_relation(g, word))
            if not want:
                with pytest.raises(VerificationError, match="admits"):
                    maximal_dominated_path(core, path)
                continue
            assert mask_of(maximal_dominated_path(core, path).start_set) == want


def reference_follower_partition(g):
    """Moore rounds from the out-label classes, ranks found by list.index."""
    require_essential(g)
    require_right_resolving(g)
    n = len(g.vertices)
    moves = {v: sorted(g.edges[k][1:] for k in g.index.out[v]) for v in range(n)}
    out_labels = {v: frozenset(a for a, _ in moves[v]) for v in range(n)}
    keys = sorted(set(out_labels.values()), key=sorted)
    block = {v: keys.index(out_labels[v]) for v in range(n)}
    while True:
        signature = {
            v: (block[v], tuple((a, block[w]) for a, w in moves[v])) for v in range(n)
        }
        distinct = sorted(set(signature.values()))
        new_block = {v: distinct.index(signature[v]) for v in range(n)}
        if new_block == block:
            break
        block = new_block
    classes = {}
    for v in range(n):
        classes.setdefault(block[v], []).append(v)
    return tuple(frozenset(c) for c in sorted(classes.values(), key=lambda c: c[0]))


def reference_graphs_isomorphic(g1, g2):
    """Colouring that scans every edge per vertex and round, then
    backtracking that scans every edge per candidate."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return IsomorphismResult(False, None)
    shared = sorted(set(g1.symbols) | set(g2.symbols))
    sym1 = {i: shared.index(s) for i, s in enumerate(g1.symbols)}
    sym2 = {i: shared.index(s) for i, s in enumerate(g2.symbols)}

    def colorize(g, sym):
        n = len(g.vertices)
        color = [0] * n
        for _ in range(n + 1):
            sigs = []
            for v in range(n):
                outs = sorted((sym[a], color[w]) for u, a, w in g.edges if u == v)
                ins = sorted((sym[a], color[w]) for w, a, u in g.edges if u == v)
                sigs.append((color[v], tuple(outs), tuple(ins)))
            distinct = sorted(set(sigs))
            new_color = [distinct.index(s) for s in sigs]
            if new_color == color:
                break
            color = new_color
        return color

    c1, c2 = colorize(g1, sym1), colorize(g2, sym2)
    if sorted(c1) != sorted(c2):
        return IsomorphismResult(False, None)
    n = len(g1.vertices)
    edges2 = {(u, sym2[a], v) for u, a, v in g2.edges}
    candidates = [[w for w in range(n) if c2[w] == c1[v]] for v in range(n)]
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    mapping = [None] * n
    used = [False] * n

    def consistent(v, w):
        for u, a, x in g1.edges:
            mu, mx = mapping[u], mapping[x]
            if u == v and mx is not None and (w, sym1[a], mx) not in edges2:
                return False
            if x == v and mu is not None and (mu, sym1[a], w) not in edges2:
                return False
            if u == v and x == v and (w, sym1[a], w) not in edges2:
                return False
        return True

    def backtrack(pos):
        if pos == n:
            return True
        v = order[pos]
        for w in candidates[v]:
            if used[w] or not consistent(v, w):
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(pos + 1):
                return True
            mapping[v] = None
            used[w] = False
        return False

    if not backtrack(0):
        return IsomorphismResult(False, None)
    final = tuple(mapping)
    if {(final[u], sym1[a], final[v]) for u, a, v in g1.edges} != edges2:
        return IsomorphismResult(False, None)
    return IsomorphismResult(True, final)


def shuffled_twin(g, seed):
    """g with its alphabet, vertices and edges listed in a seeded order."""
    rng = random.Random(seed)
    syms = rng.sample(range(len(g.symbols)), len(g.symbols))
    verts = rng.sample(range(len(g.vertices)), len(g.vertices))
    sym_at = {old: new for new, old in enumerate(syms)}
    vert_at = {old: new for new, old in enumerate(verts)}
    edges = [(vert_at[u], sym_at[a], vert_at[v]) for u, a, v in g.edges]
    rng.shuffle(edges)
    return LabeledGraph(
        tuple(g.symbols[a] for a in syms), tuple(g.vertices[v] for v in verts), tuple(edges)
    )


def one_edge_changed(g, k):
    """g with edge k sent to the next vertex, or relabeled when that edge
    already exists; None when neither change gives a new edge."""
    u, a, v = g.edges[k]
    n, s = len(g.vertices), len(g.symbols)
    for edge in ((u, a, (v + 1) % n), (u, (a + 1) % s, v)):
        if edge not in g.edges:
            return LabeledGraph(g.symbols, g.vertices, g.edges[:k] + (edge,) + g.edges[k + 1:])
    return None


RINGS = (24, 60, 64)
# Not right-resolving: y0 gets two a-edges from the x vertices, y1 one,
# and x0 sends two a-edges where x1 sends one.
IN_COUNTS = graph_from_parts(
    ("a", "b"),
    ("x0", "x1", "y0", "y1"),
    (("x0", "a", "y0"), ("x0", "a", "y1"), ("x1", "a", "y0"), ("y0", "b", "x0"), ("y1", "b", "x1")),
)
REFINE_CASES = (
    ESSENTIAL
    + [(f"walk-{name}", g) for name, g in WALK_CASES if name not in BASE_FIXTURES]
    + LIFTED
    + [(f"ring{n}", looped_ring(n)) for n in RINGS]
    + [("example_a.x10s1", cyclic_lift(load_fixture("example_a"), 10, 1))]
    + [("in-counts", IN_COUNTS), ("empty", LabeledGraph(("a",), (), ()))]
)
CONTROL_EDGES = 3


def iso_pairs(name, g):
    yield "twin-0", shuffled_twin(g, f"{name}/0")
    yield "twin-1", shuffled_twin(g, f"{name}/1")
    for k in range(min(CONTROL_EDGES, len(g.edges))):
        control = one_edge_changed(g, k)
        if control is not None:
            yield f"control-{k}", shuffled_twin(control, f"{name}/c{k}")


def test_refine_cases_cover_both_kinds_and_automorphisms():
    assert {check_right_resolving(g).ok for _, g in REFINE_CASES} == {True, False}
    outcomes = {
        (label.startswith("twin"), graphs_isomorphic(g, h).isomorphic)
        for name, g in REFINE_CASES
        for label, h in iso_pairs(name, g)
    }
    assert {(True, True), (False, False)} <= outcomes
    for name in BASE_FIXTURES:
        n = len(load_fixture(name).vertices)
        for fold, step in LIFTS:
            lifted = cyclic_lift(load_fixture(name), fold, step)
            shifted = {((u + n) % (fold * n), a, (v + n) % (fold * n)) for u, a, v in lifted.edges}
            assert shifted == set(lifted.edges)


def route_calls(monkeypatch):
    """The refinements isomorphism tests run from now on, in call order:
    ``_split_classes`` for the forced route, ``_refine`` for the counting
    route."""
    calls = []
    for name in ("_split_classes", "_refine"):
        real = getattr(analysis, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(analysis, name, spy)
    return calls


def assert_maps_edges(g, h, mapping):
    """The mapping is a bijection that carries g's edges onto h's, with
    symbols compared by name."""
    assert sorted(mapping) == list(range(len(h.vertices)))
    image = {(mapping[u], g.symbols[a], mapping[v]) for u, a, v in g.edges}
    assert image == {(u, h.symbols[a], v) for u, a, v in h.edges}


def test_relabelled_controls_are_rejected_before_refinement(monkeypatch):
    """A control whose changed edge carries another symbol has other label
    counts, so no refinement runs.  A control whose edge moved has the
    same counts and refines once: by follower classes when the pair is
    right-resolving, by counted arcs otherwise."""
    calls = route_calls(monkeypatch)
    relabelled = 0
    moved = {"_split_classes": 0, "_refine": 0}
    for name, g in REFINE_CASES:
        route = "_split_classes" if check_right_resolving(g).ok else "_refine"
        for k in range(min(CONTROL_EDGES, len(g.edges))):
            control = one_edge_changed(g, k)
            if control is None:
                continue
            h = shuffled_twin(control, f"{name}/c{k}")
            before = len(calls)
            assert graphs_isomorphic(g, h) == IsomorphismResult(False, None), (name, k)
            if control.edges[k][1] != g.edges[k][1]:
                relabelled += 1
                assert calls[before:] == [], (name, k)
            else:
                moved[route] += 1
                assert calls[before:] == [route], (name, k)
    assert relabelled and all(moved.values())


@pytest.mark.parametrize(
    "route,g", [("_split_classes", load_fixture("example_a")), ("_refine", IN_COUNTS)]
)
def test_a_symbol_on_no_edge_does_not_count(monkeypatch, route, g):
    """Two graphs whose alphabets differ by a symbol that labels no edge
    are isomorphic, on the route their edges choose."""
    wider = LabeledGraph(g.symbols + ("unused",), g.vertices, g.edges)
    twin = shuffled_twin(g, "unused")
    calls = route_calls(monkeypatch)
    for left, right in ((wider, twin), (twin, wider)):
        result = graphs_isomorphic(left, right)
        assert result.isomorphic
        assert_maps_edges(left, right, result.mapping)
    assert calls == [route, route]


@pytest.mark.parametrize("name,g", REFINE_CASES, ids=[name for name, _ in REFINE_CASES])
def test_refinement_matches_reference_routines(name, g):
    if check_right_resolving(g).ok:
        assert follower_partition(g) == reference_follower_partition(g)
    for label, h in iso_pairs(name, g):
        assert graphs_isomorphic(g, h) == reference_graphs_isomorphic(g, h), label
        if label.startswith("twin"):
            assert graphs_isomorphic(g, h).isomorphic, label


@st.composite
def partial_resolving_graphs(draw):
    """The essential part of a graph on 1 to 14 vertices over 1 to 3
    symbols in which a vertex has at most one edge of each symbol, and
    may lack some symbols."""
    n = draw(st.integers(1, 14))
    symbols = "abc"[: draw(st.integers(1, 3))]
    target = st.one_of(st.none(), st.integers(0, n - 1))
    edges = []
    for v in range(n):
        for a in range(len(symbols)):
            w = draw(target)
            if w is not None:
                edges.append((v, a, w))
    g = LabeledGraph(tuple(symbols), tuple(f"v{v}" for v in range(n)), tuple(edges))
    try:
        return essentialize(g)
    except EmptyShiftError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(partial_resolving_graphs())
def test_follower_partition_matches_moore_rounds(g):
    assert follower_partition(g) == reference_follower_partition(g)


@st.composite
def resolving_graphs(draw):
    """A right-resolving graph over 1 to 3 symbols, untrimmed, so that it
    may have sources, sinks and isolated vertices: one or two drawn parts
    of 1 to 5 vertices, each listed one to three times side by side, so
    that it may be disconnected and have automorphisms."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, 5))
        target = st.one_of(st.none(), st.integers(0, size - 1))
        part = [
            (v, a, w)
            for v in range(size)
            for a in range(len(symbols))
            if (w := draw(target)) is not None
        ]
        for _ in range(draw(st.integers(1, 3))):
            edges += [(n + v, a, n + w) for v, a, w in part]
            n += size
    return LabeledGraph(tuple(symbols), tuple(f"v{v}" for v in range(n)), tuple(edges))


@settings(max_examples=300, deadline=None)
@given(resolving_graphs(), st.data())
def test_forced_route_matches_reference_on_resolving_graphs(g, data):
    """g against a relisted copy, a copy with one edge moved to another
    target under its symbol, so that the label counts agree, and a copy
    with one edge relabelled, each relisted: the verdicts are the
    reference's, and every mapping carries g's edges onto the copy's."""
    seed = data.draw(st.integers(0, 999))
    copies = [("relisted", g)]
    if g.edges and len(g.vertices) > 1:
        k = data.draw(st.integers(0, len(g.edges) - 1))
        u, a, v = g.edges[k]
        w = data.draw(st.sampled_from([x for x in range(len(g.vertices)) if x != v]))
        moved = g.edges[:k] + ((u, a, w),) + g.edges[k + 1:]
        copies.append(("retargeted", LabeledGraph(g.symbols, g.vertices, moved)))
    relabelled = [
        g.edges[:k] + ((u, b, v),) + g.edges[k + 1:]
        for k, (u, a, v) in enumerate(g.edges)
        for b in range(len(g.symbols))
        if b != a and (u, b, v) not in g.edges
    ]
    if relabelled:
        edges = data.draw(st.sampled_from(relabelled))
        copies.append(("relabelled", LabeledGraph(g.symbols, g.vertices, edges)))
    for label, copy in copies:
        h = shuffled_twin(copy, seed)
        got = graphs_isomorphic(g, h)
        assert got.isomorphic == reference_graphs_isomorphic(g, h).isomorphic, label
        assert got.isomorphic or label != "relisted"
        if got.isomorphic:
            assert_maps_edges(g, h, got.mapping)


# Three vertices in one follower class; v0 and v2 have in-degree 3 and v1
# none.  Against the copy with v0 and v2 swapped, the forced route first
# maps the root v0 to the copy's v0, and the propagation accepts it.  The
# next root, v1, then has no candidate, so the search goes back to v0.
ROOT_BACKTRACK = graph_from_parts(
    ("a", "b"),
    ("v0", "v1", "v2"),
    (("v0", "a", "v2"), ("v0", "b", "v2"), ("v1", "a", "v2"), ("v1", "b", "v0"),
     ("v2", "a", "v0"), ("v2", "b", "v0")),
)
ROOT_BACKTRACK_COPY = LabeledGraph(
    ROOT_BACKTRACK.symbols,
    ROOT_BACKTRACK.vertices,
    tuple((2 - u, a, 2 - v) for u, a, v in ROOT_BACKTRACK.edges),
)
# One component that takes four roots: the sink v1, its b-predecessors v0
# and v2, which share a follower class, and v3, which sends a to v2 and b
# to v0.  Against the relisted copy, v0's first image leaves v3 no
# candidate, so the search goes back over two roots inside the component
# before it may call the component mapped.
FOUR_ROOTS = graph_from_parts(
    ("a", "b"),
    ("v0", "v1", "v2", "v3"),
    (("v0", "b", "v1"), ("v2", "b", "v1"), ("v3", "a", "v2"), ("v3", "b", "v0")),
)
FOUR_ROOTS_COPY = graph_from_parts(
    ("a", "b"),
    ("v0", "v1", "v2", "v3"),
    (("v2", "b", "v3"), ("v2", "a", "v0"), ("v3", "b", "v1"), ("v0", "b", "v1")),
)


def placements(g, h):
    """``graphs_isomorphic(g, h)`` and the forced route's root placements
    in call order, as (root, union vertex, accepted) triples, read with a
    profile hook on its nested ``place``."""
    calls, open_calls = [], []

    def profile(frame, event, arg):
        if frame.f_code.co_name != "place" or frame.f_back is None:
            return
        if frame.f_back.f_code is not analysis._forced_isomorphism.__code__:
            return
        if event == "call":
            open_calls.append((frame.f_locals["root"], frame.f_locals["w"]))
        elif event == "return":
            calls.append(open_calls.pop() + (arg,))

    sys.setprofile(profile)
    try:
        result = graphs_isomorphic(g, h)
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.mark.parametrize(
    "g,h,mapping,accepted",
    [
        (ROOT_BACKTRACK, ROOT_BACKTRACK_COPY, (2, 1, 0), [0, 0, 1]),
        (FOUR_ROOTS, FOUR_ROOTS_COPY, (3, 1, 0, 2), [1, 0, 2, 0, 2, 3]),
    ],
    ids=["later-root-dead-end", "four-roots"],
)
def test_forced_route_backtracks_over_roots(g, h, mapping, accepted):
    """The forced route's result, and the roots it placed, in order: a
    root placed again is one the search went back to."""
    result, calls = placements(g, h)
    assert result == IsomorphismResult(True, mapping)
    assert [root for root, _, ok in calls if ok] == accepted


def rank_rounds(adjacency):
    """Colour refinement by rounds: from colour 0 everywhere, recolour v by
    the rank of its signature (colour, sorted ``(tag, colour of w)``
    pairs) among the distinct signatures, until the colours repeat."""
    colour = [0] * len(adjacency)
    while True:
        signatures = [
            (colour[v], tuple(sorted((tag, colour[w]) for tag, w in arcs)))
            for v, arcs in enumerate(adjacency)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(signatures)))}
        refined = [rank[s] for s in signatures]
        if refined == colour:
            return colour
        colour = refined


def classes_of(colour):
    """The partition a colouring induces, classes ordered by smallest vertex."""
    classes = {}
    for v, c in enumerate(colour):
        classes.setdefault(c, []).append(v)
    return list(classes.values())


@st.composite
def tagged_adjacency(draw):
    """Up to 12 vertices and 48 arcs tagged 0 to 3; an arc may repeat."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, st.integers(0, 3), vertex), max_size=4 * n))
    adjacency = [[] for _ in range(n)]
    for v, tag, w in arcs:
        adjacency[v].append((tag, w))
    return adjacency


@settings(max_examples=300, deadline=None)
@given(tagged_adjacency())
def test_refine_matches_rank_rounds(adjacency):
    assert classes_of(_refine(adjacency)) == classes_of(rank_rounds(adjacency))


@pytest.mark.parametrize("name,g", REFINE_CASES, ids=[name for name, _ in REFINE_CASES])
def test_refine_matches_rank_rounds_on_graphs(name, g):
    """On the out-edges, and on out- and in-edges with in-edges tagged
    apart, as the follower partition and the isomorphism test use them."""
    out = [[g.edges[k][1:] for k in ks] for ks in g.index.out]
    both = [list(arcs) for arcs in out]
    for u, a, v in g.edges:
        both[v].append((len(g.symbols) + a, u))
    for adjacency in (out, both):
        assert classes_of(_refine(adjacency)) == classes_of(rank_rounds(adjacency))


@st.composite
def perturbed_union(draw):
    """A ``tagged_adjacency`` draw beside a copy with its vertices
    permuted, in which one arc may get a new tag and target; the copy's
    vertex v is ``n + v``.  Returns the union and n."""
    adjacency = draw(tagged_adjacency())
    n = len(adjacency)
    place = draw(st.permutations(range(n)))
    copy = [[] for _ in range(n)]
    for v, arcs in enumerate(adjacency):
        copy[place[v]] = [(tag, place[w]) for tag, w in arcs]
    slots = [(v, i) for v in range(n) for i in range(len(copy[v]))]
    if slots and draw(st.booleans()):
        v, i = draw(st.sampled_from(slots))
        copy[v][i] = (draw(st.integers(0, 3)), draw(st.integers(0, n - 1)))
    return adjacency + [[(tag, n + w) for tag, w in arcs] for arcs in copy], n


@settings(max_examples=300, deadline=None)
@given(perturbed_union())
def test_refine_stops_exactly_at_an_unbalanced_class(drawn):
    union, half = drawn
    classes = classes_of(rank_rounds(union))
    balanced = all(2 * sum(v < half for v in c) == len(c) for c in classes)
    colour = _refine(union, half)
    assert (colour is not None) == balanced
    if colour is not None:
        assert classes_of(colour) == classes
    assert classes_of(_refine(union)) == classes


def union_arcs(g, h):
    """The disjoint union ``graphs_isomorphic`` refines: out-edges tagged
    2 * symbol rank, in-edges 2 * symbol rank + 1, h's vertex w at
    ``len(g.vertices) + w``."""
    n = len(g.vertices)
    shared = sorted(set(g.symbols) | set(h.symbols))
    arcs = [[] for _ in range(2 * n)]
    for graph, offset in ((g, 0), (h, n)):
        sym = [2 * shared.index(s) for s in graph.symbols]
        for u, a, v in graph.edges:
            arcs[u + offset].append((sym[a], v + offset))
            arcs[v + offset].append((sym[a] + 1, u + offset))
    return arcs


def splitter_pops(adjacency, half=0):
    """``_refine``'s result and the number of splitter classes it popped,
    counted as its calls of ``list.pop``."""
    pops = 0

    def profile(frame, event, arg):
        nonlocal pops
        if event == "c_call" and frame.f_code is _refine.__code__ and arg.__name__ == "pop":
            pops += 1

    sys.setprofile(profile)
    try:
        colour = _refine(adjacency, half)
    finally:
        sys.setprofile(None)
    return colour, pops


@pytest.mark.parametrize("name,g", LIFTED, ids=[name for name, _ in LIFTED])
def test_union_refinement_stops_early_on_controls(name, g):
    """Every one-edge-changed control of a lift stops the refinement of the
    union before the full refinement ends."""
    controls = 0
    for k in range(len(g.edges)):
        control = one_edge_changed(g, k)
        if control is None:
            continue
        controls += 1
        union = union_arcs(g, shuffled_twin(control, f"{name}/c{k}"))
        colour, pops = splitter_pops(union, len(g.vertices))
        full, full_pops = splitter_pops(union)
        assert colour is None and full is not None, k
        assert pops < full_pops, k
    assert controls


def reference_transition_monoid(g):
    """Breadth-first closure by ``BoolRelation.compose`` with a popped
    queue; idempotents flagged by composing each element with itself."""
    base = [symbol_relation(g, a) for a in range(len(g.symbols))]
    elements, words, index = [], [], {}
    for a, rel in enumerate(base):
        if rel.rows not in index:
            index[rel.rows] = len(elements)
            elements.append(rel)
            words.append((a,))
    todo = list(range(len(elements)))
    while todo:
        i = todo.pop(0)
        for a, gen in enumerate(base):
            rel = elements[i].compose(gen)
            if rel.rows not in index:
                index[rel.rows] = len(elements)
                elements.append(rel)
                words.append(words[i] + (a,))
                todo.append(len(elements) - 1)
    return elements, words, [is_idempotent(rel) for rel in elements]


def reference_row_count(g):
    """The empty set plus every vertex set reached from a singleton by a
    word, empty or not."""
    succ = {}
    for u, a, v in g.edges:
        succ.setdefault((u, a), set()).add(v)
    rows = {frozenset()} | {frozenset([v]) for v in range(len(g.vertices))}
    todo = list(rows)
    while todo:
        row = todo.pop()
        for a in range(len(g.symbols)):
            image = frozenset(w for u in row for w in succ.get((u, a), ()))
            if image not in rows:
                rows.add(image)
                todo.append(image)
    return len(rows)


# Disjoint unions (step 0) whose row tables pass 256 ids, one of each kind.
WIDE_ROW_CASES = [
    (f"{name}.x{fold}s0", cyclic_lift(g, fold, 0))
    for name, g, fold in (
        ("example_b", load_fixture("example_b"), 130),
        ("nrr-4", dict(WALK_CASES)["nrr-4"], 11),
    )
]
# A right-resolving union of 255 vertices whose rows take exactly 256 ids:
# an idempotent squares through a translate table with no padding.
FULL_BYTE_CASE = ("example_a.x85s0", cyclic_lift(load_fixture("example_a"), 85, 0))
# Small seeded graphs with dead ends, right-resolving at even seeds.
MONOID_SWEEP = [
    (f"{'rr' if i % 2 == 0 else 'nrr'}-sweep-{i}", tendril_graph(7000 + i, i % 2 == 0))
    for i in range(40)
]
MONOID_CASES = WALK_CASES + [
    (f"{name}.x{fold}s1", cyclic_lift(g, fold, 1))
    for name, g, fold in (
        ("example_a", load_fixture("example_a"), 6),
        ("example_b", load_fixture("example_b"), 9),
        ("nrr-4", dict(WALK_CASES)["nrr-4"], 2),
    )
] + [FULL_BYTE_CASE] + WIDE_ROW_CASES + MONOID_SWEEP


def test_monoid_cases_cover_both_kinds_and_large_graphs():
    assert {check_right_resolving(g).ok for _, g in MONOID_CASES} == {True, False}
    assert max(len(g.vertices) for _, g in MONOID_CASES) > 16
    flags = {flag for _, g in MONOID_CASES for flag in transition_monoid(g).idempotent_flags}
    assert flags == {True, False}
    assert {check_right_resolving(g).ok for _, g in WIDE_ROW_CASES} == {True, False}
    assert all(reference_row_count(g) > 256 for _, g in WIDE_ROW_CASES)
    assert all(reference_row_count(g) <= 256 for _, g in WALK_CASES)
    _, g = FULL_BYTE_CASE
    assert check_right_resolving(g).ok and reference_row_count(g) == 256
    assert sum(transition_monoid(g).idempotent_flags) > 1
    assert {check_right_resolving(g).ok for _, g in MONOID_SWEEP} == {True, False}
    # rows past the singletons: the idempotents of these are found by the walk
    assert any(reference_row_count(g) > len(g.vertices) + 1 for _, g in MONOID_SWEEP)


BUDGET_CASES = [("nrr-4", dict(WALK_CASES)["nrr-4"])] + WIDE_ROW_CASES


def test_row_table_overruns_before_the_search():
    """More than n * budget + n + 1 rows prove more than budget elements,
    so the row table raises before the search starts: here for budget 1
    on the budget cases that are not right-resolving."""
    cases = [(name, g) for name, g in BUDGET_CASES if not check_right_resolving(g).ok]
    assert len(cases) == 2
    for name, g in cases:
        assert reference_row_count(g) > 2 * len(g.vertices) + 1, name
        with pytest.raises(BudgetExceededError, match="^transition monoid exceeds 1 elements$"):
            _row_table(g, 1)


@pytest.mark.parametrize("name,g", BUDGET_CASES, ids=[name for name, _ in BUDGET_CASES])
def test_monoid_budget_on_byte_and_tuple_rows(name, g):
    """A budget of |M| holds and every smaller one overruns, whether the
    monoid is generated now or kept from an earlier call."""
    size = len(transition_monoid(g))
    assert len(transition_monoid(g, size)) == size
    for budget in (1, 2, size - 1):
        fresh = LabeledGraph(g.symbols, g.vertices, g.edges)
        for graph in (fresh, g):
            with pytest.raises(BudgetExceededError) as exc:
                transition_monoid(graph, budget)
            assert str(exc.value) == f"transition monoid exceeds {budget} elements"


@pytest.mark.parametrize("name,g", MONOID_CASES, ids=[name for name, _ in MONOID_CASES])
def test_transition_monoid_matches_compose_route(name, g):
    monoid = transition_monoid(g)
    elements, words, flags = reference_transition_monoid(g)
    assert [word_relation(g, w) for w in monoid.words] == elements
    assert monoid.words == words
    assert monoid.idempotent_flags == flags
    idempotents = [(rel, w) for rel, w, flag in zip(elements, words, flags) if flag]
    assert monoid.idempotent_ends == (
        tuple(rel.ran_mask() for rel, _ in idempotents),
        tuple(dom_mask(rel) for rel, _ in idempotents),
        tuple(w for _, w in idempotents),
    )


def reference_components(g):
    """Components, component of each vertex and source flags from the
    reachability set of every vertex."""
    n = len(g.vertices)
    succ = [set() for _ in range(n)]
    for u, _, v in g.edges:
        succ[u].add(v)
    reaches = []
    for v in range(n):
        seen, todo = set(), list(succ[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(succ[w])
        reaches.append(seen)
    component_of = [None] * n
    components = []
    for v in range(n):
        if v in reaches[v] and component_of[v] is None:
            comp = tuple(w for w in range(n) if w in reaches[v] and v in reaches[w])
            for w in comp:
                component_of[w] = len(components)
            components.append(comp)
    is_source = [
        all(u in comp for u in range(n) if reaches[u] & set(comp)) for comp in components
    ]
    return tuple(components), tuple(component_of), tuple(is_source)


def component_cases():
    out = [(name, load_fixture(name)) for name in BASE_FIXTURES]
    for name in BASE_FIXTURES:
        out.append((f"{name}.core", stable_core(load_fixture(name)).graph))
    return out + LIFTED + CASES


COMPONENT_CASES = component_cases()


def test_component_cases_include_sinks_sources_and_tendrils():
    infos = [components_and_sources(g) for _, g in COMPONENT_CASES]
    assert any(None in info.component_of for info in infos)
    assert {flag for info in infos for flag in info.is_source} == {True, False}
    assert any(len(info.components) > 1 for info in infos)


@pytest.mark.parametrize("name,g", COMPONENT_CASES, ids=[name for name, _ in COMPONENT_CASES])
def test_components_match_reachability_sets(name, g):
    info = components_and_sources(g)
    assert (info.components, info.component_of, info.is_source) == reference_components(g)


@st.composite
def small_digraphs(draw):
    """A graph on 1 to 12 vertices over 2 symbols with up to 24 edges,
    drawn as (source, symbol, target) triples; sparse draws leave sinks,
    sources and tendrils, and a drawn triple may be a self-loop."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, st.integers(0, 1), vertex), max_size=24, unique=True))
    return LabeledGraph(("a", "b"), tuple(f"v{v}" for v in range(n)), tuple(edges))


@settings(max_examples=300, deadline=None)
@given(small_digraphs())
def test_components_match_reachability_sets_on_drawn_graphs(g):
    info = components_and_sources(g)
    assert (info.components, info.component_of, info.is_source) == reference_components(g)


def test_components_of_a_long_chain_into_a_cycle():
    """v0 -> v1 -> ... -> v4999 -> v4997: one component, entered from
    the chain, so not a source."""
    n = 5000
    edges = tuple((v, 0, v + 1) for v in range(n - 1)) + ((n - 1, 0, n - 3),)
    info = components_and_sources(LabeledGraph(("a",), tuple(f"v{v}" for v in range(n)), edges))
    assert info.components == ((n - 3, n - 2, n - 1),)
    assert info.component_of == (None,) * (n - 3) + (0, 0, 0)
    assert info.is_source == (False,)
