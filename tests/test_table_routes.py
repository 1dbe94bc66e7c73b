"""The shared edge tables and the trimming worklist against the loops they
replace.

``graphs.trim`` removes dead nodes with a degree-counting worklist and
``follower_contains`` searches over bitmask states read from the graph's
edge index.  The references below keep the earlier code: the round-based
fixpoint trimming loop (once inside ``essentialize`` and
``fiber_count_periodic``) and the containment search that scans every
edge for each subset step.  Inputs are seeded random graphs with dead-end
tendrils on both sides, half of them right-resolving.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from soficovers import BASE_FIXTURES, load_fixture
from soficovers.analysis import follower_contains
from soficovers.errors import EmptyShiftError, UnrealizableWordError
from soficovers.fibers import INFINITE, fiber_count_periodic
from soficovers.graphs import (
    LabeledGraph,
    check_right_resolving,
    essentialize,
    graph_from_parts,
    normalize_periodic,
    trim,
)

GRAPHS_PER_KIND = 12
MAX_WORD = 3


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
