"""The shared edge tables, the trimming worklist and the mask-based bundle
graphs against the code they replace.

``graphs.trim`` removes dead nodes with a degree-counting worklist and
``follower_contains`` searches over bitmask states read from the graph's
edge index.  The references below keep the earlier code: the round-based
fixpoint trimming loop (once inside ``essentialize`` and
``fiber_count_periodic``) and the containment search that scans every
edge for each subset step.  Inputs are seeded random graphs with dead-end
tendrils on both sides, half of them right-resolving.

``bundle_graph`` and ``fiber_core`` close and assemble vertex masks with
the subset graphs' closure and assembly.  The references keep the
frozenset all-emit step, breadth-first closure and bundle assembly they
replace; both routes must give the same members, edges, bundle edges,
seeds and provenance on the fixtures and on seeded right-resolving graphs
of up to 8 vertices.

The past and forward sets of a periodic word come from one walk of the
word's masks (``analysis.past_masks`` and ``forward_masks``).  The
reference composes each rotation's relation and takes its stabilized
range and domain, and it decides realizability by the idempotent power;
``maximal_dominated_path`` is held to the domain of the word's relation.

``follower_partition`` and ``graphs_isomorphic`` colour vertices with one
refinement routine on per-vertex arc lists, which splits classes by arc
counts into a splitter class.  The references keep the Moore loop that
ranked signatures with ``list.index`` and the isomorphism colouring that
rescanned every edge for every vertex in every round, with its
edge-scanning backtracking; ``rank_rounds`` keeps the routine's earlier
body, which re-ranked every vertex's signature each round, and must give
the same partition on random tagged arc lists with repeated arcs.  Each
graph is compared with two shuffled twins and with one-edge-changed
controls; cyclic lifts of the fixtures have nontrivial automorphisms, so
they also pin which mapping is found, and looped rings need one
refinement round per vertex.

``transition_monoid`` searches breadth-first over row tuples and flags an
idempotent by walking its own word along the right Cayley graph that the
search records.  The reference composes ``BoolRelation``s from a popped
queue and flags idempotents by self-composition; elements, words and flags
must agree on the walk cases and on lifts of up to 20 vertices.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficovers import BASE_FIXTURES, load_fixture
from soficovers.analysis import (
    IsomorphismResult,
    _refine,
    follower_contains,
    follower_partition,
    forward_masks,
    graphs_isomorphic,
    past_masks,
    periodic_points,
    require_realizable,
)
from soficovers.covers import stable_core
from soficovers.errors import (
    BudgetExceededError,
    EmptyShiftError,
    UnrealizableWordError,
    VerificationError,
)
from soficovers.fibers import (
    INFINITE,
    BundleEdge,
    SeedRecord,
    _tail_seed_masks,
    bundle_graph,
    fiber_core,
    fiber_count_periodic,
    fiber_sets_on_periodic,
    maximal_dominated_path,
)
from soficovers.graphs import (
    LabeledGraph,
    check_right_resolving,
    edge_lookup,
    essentialize,
    graph_from_parts,
    normalize_periodic,
    paths_of_length,
    require_essential,
    require_right_resolving,
    trim,
    words_up_to,
)
from soficovers.relations import (
    mask_of,
    omega_power,
    stabilized_domain,
    stabilized_range,
    symbol_relation,
    transition_monoid,
    word_relation,
)
from soficovers.verification import random_right_resolving_graphs
from test_closure_routes import random_essential_graphs
from test_golden import cyclic_lift, looped_ring

GRAPHS_PER_KIND = 12
MAX_WORD = 3
BUNDLE_GRAPHS = 16
MONOID_CAP = 1500
WALK_WORD = 4
WALK_GRAPHS = 6
DOMINATED_PATH = 3


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


RESOLVING = [(name, g) for name, g in ESSENTIAL if check_right_resolving(g).ok]


@pytest.mark.parametrize("name,g", RESOLVING, ids=[name for name, _ in RESOLVING])
def test_follower_contains_matches_edge_scan(name, g):
    n = len(g.vertices)
    got = [[follower_contains(g, u, v) for v in range(n)] for u in range(n)]
    want = [[reference_follower_contains(g, u, v) for v in range(n)] for u in range(n)]
    assert got == want


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
    """(vertex names, edges, members, bundle edges) of the bundle graph."""
    emit = edge_lookup(base)
    members = tuple(sorted(family, key=lambda m: (len(m), sorted(m))))
    index = {m: i for i, m in enumerate(members)}
    edges = []
    bundles = []
    for i, mem in enumerate(members):
        for a in range(len(base.symbols)):
            step = reference_bundle_step(base, emit, mem, a)
            if step is None:
                continue
            target, edge_members = step
            edges.append((i, a, index[target]))
            bundles.append(BundleEdge(i, a, index[target], edge_members))
    names = tuple(
        "{" + ",".join(base.vertices[v] for v in sorted(m)) + "}" for m in members
    )
    return names, tuple(edges), members, tuple(bundles)


def reference_fiber_core(base, max_period, max_tail, budget):
    """(assembly, seeds, provenance) of the fiber core, over frozensets."""
    n = len(base.vertices)
    seeds = []
    seen = set()
    for p in periodic_points(base, max_period):
        text = "".join(base.symbols[a] for a in p.word)
        for k, fset in enumerate(fiber_sets_on_periodic(base, p).fiber_sets):
            if fset not in seen:
                seen.add(fset)
                seeds.append(SeedRecord("periodic", f"({text})*@{k}", fset))
    past_list, forward_list = _tail_seed_masks(base, max_tail, budget)
    for p_mask, p_cost, p_desc in past_list:
        for f_mask, f_cost, f_desc in forward_list:
            mask = p_mask & f_mask
            members = frozenset(v for v in range(n) if mask >> v & 1)
            if p_cost + f_cost <= max_tail and members and members not in seen:
                seen.add(members)
                seeds.append(SeedRecord("tail", f"{p_desc} & {f_desc}", members))
    assembly = reference_assemble_bundle(
        base, reference_forward_closure(base, [s.members for s in seeds])
    )
    index = {m: i for i, m in enumerate(assembly[2])}
    provenance = [None] * len(index)
    for s in seeds:
        if provenance[index[s.members]] is None:
            provenance[index[s.members]] = s
    changed = True
    while changed:
        changed = False
        for be in assembly[3]:
            if provenance[be.source] is not None and provenance[be.target] is None:
                provenance[be.target] = ("closure", be.source, be.symbol)
                changed = True
    return assembly, tuple(seeds), tuple(provenance)


def assembled(bundle):
    return bundle.graph.vertices, bundle.graph.edges, bundle.members, bundle.bundle_edges


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
    assembly, seed_records, provenance = reference_fiber_core(g, 6, 8, MONOID_CAP)
    assert assembled(fcore) == assembly
    assert fcore.seeds == seed_records
    assert fcore.provenance == provenance


def reference_phase_masks(g, word):
    """Past and forward masks per phase from each rotation's relation."""
    rels = [word_relation(g, word[k:] + word[:k]) for k in range(len(word))]
    return [stabilized_range(r) for r in rels], [stabilized_domain(r) for r in rels]


def reference_realizable(g, word):
    return not omega_power(word_relation(g, word)).is_empty()


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


WALK_RESOLVING = [(name, g) for name, g in WALK_CASES if check_right_resolving(g).ok]


@pytest.mark.parametrize("name,g", WALK_RESOLVING, ids=[name for name, _ in WALK_RESOLVING])
def test_dominated_path_start_is_word_domain(name, g):
    core = stable_core(g, MONOID_CAP)
    for length in range(1, DOMINATED_PATH + 1):
        for path in paths_of_length(core.graph, length):
            word = tuple(core.graph.edges[k][1] for k in path)
            source = mask_of(core.members[core.graph.edges[path[0]][0]])
            want = source & word_relation(g, word).dom_mask()
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


LIFTS = ((2, 0), (3, 1))  # (fold, step): two disjoint sheets, a connected 3-fold lift
RINGS = (24, 60)
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
    + [
        (f"{name}.x{fold}s{step}", cyclic_lift(load_fixture(name), fold, step))
        for name in BASE_FIXTURES
        for fold, step in LIFTS
    ]
    + [(f"ring{n}", looped_ring(n)) for n in RINGS]
    + [("in-counts", IN_COUNTS)]
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


@pytest.mark.parametrize("name,g", REFINE_CASES, ids=[name for name, _ in REFINE_CASES])
def test_refinement_matches_reference_routines(name, g):
    if check_right_resolving(g).ok:
        assert follower_partition(g) == reference_follower_partition(g)
    for label, h in iso_pairs(name, g):
        assert graphs_isomorphic(g, h) == reference_graphs_isomorphic(g, h), label
        if label.startswith("twin"):
            assert graphs_isomorphic(g, h).isomorphic, label


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
    return elements, words, [rel.is_idempotent() for rel in elements]


MONOID_CASES = WALK_CASES + [
    (f"{name}.x{fold}s1", cyclic_lift(g, fold, 1))
    for name, g, fold in (
        ("example_a", load_fixture("example_a"), 6),
        ("example_b", load_fixture("example_b"), 9),
        ("nrr-4", dict(WALK_CASES)["nrr-4"], 2),
    )
]


def test_monoid_cases_cover_both_kinds_and_large_graphs():
    assert {check_right_resolving(g).ok for _, g in MONOID_CASES} == {True, False}
    assert max(len(g.vertices) for _, g in MONOID_CASES) > 16
    flags = {flag for _, g in MONOID_CASES for flag in transition_monoid(g).idempotent_flags}
    assert flags == {True, False}


@pytest.mark.parametrize("name,g", MONOID_CASES, ids=[name for name, _ in MONOID_CASES])
def test_transition_monoid_matches_compose_route(name, g):
    monoid = transition_monoid(g)
    elements, words, flags = reference_transition_monoid(g)
    assert monoid.elements == elements
    assert monoid.words == words
    assert monoid.idempotent_flags == flags
