"""The covers do not depend on how a presentation lists its vertices,
symbols or edges.

Each graph is rebuilt with its vertices permuted, its alphabet reordered
and its edges shuffled; the stable core, the future cover, the extended
future cover, the full bundle graph and the fiber core of the copy must
be isomorphic (labels matched by name) to those of the original.

State splitting changes the presentation and keeps the shift (Lind &
Marcus, section 2.4).  An in-split keeps a graph right-resolving; an
out-split usually breaks it, so non-right-resolving graphs reach
``stable_core`` too.  The future cover depends only on the shift, so
across a split it stays the same up to isomorphism, and so do the
extended future cover, the class sizes of its factor map onto the future
cover, and whether it is a genuine extension (has more vertices than
the future cover).  Fiber counts depend on the presentation and are not
compared.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional

import pytest

from soficovers import BASE_FIXTURES, load_fixture
from soficovers.analysis import graphs_isomorphic
from soficovers.covers import extended_future_cover, future_cover, stable_core
from soficovers.fibers import bundle_graph, fiber_core
from soficovers.graphs import LabeledGraph, check_right_resolving
from soficovers.verification import random_right_resolving_graphs
from test_closure_routes import random_essential_graphs


def relisted(g: LabeledGraph, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    vertices = list(range(len(g.vertices)))
    symbols = list(range(len(g.symbols)))
    while len(vertices) > 1 and vertices == sorted(vertices):
        rng.shuffle(vertices)
    while len(symbols) > 1 and symbols == sorted(symbols):
        rng.shuffle(symbols)
    vertex_at = {old: new for new, old in enumerate(vertices)}
    symbol_at = {old: new for new, old in enumerate(symbols)}
    edges = [(vertex_at[u], symbol_at[a], vertex_at[v]) for u, a, v in g.edges]
    rng.shuffle(edges)
    return LabeledGraph(
        tuple(g.symbols[a] for a in symbols),
        tuple(g.vertices[v] for v in vertices),
        tuple(edges),
    )


CASES = [(name, load_fixture(name)) for name in BASE_FIXTURES] + [
    (f"random-{i}", g) for i, g in enumerate(random_right_resolving_graphs(12, 7))
]


@pytest.mark.parametrize("name,g", CASES, ids=[name for name, _ in CASES])
def test_covers_invariant_under_relisting(name, g):
    for seed in range(3):
        twin = relisted(g, seed)
        assert twin != g or len(g.vertices) == len(g.symbols) == 1
        assert graphs_isomorphic(stable_core(twin).graph, stable_core(g).graph).isomorphic
        assert graphs_isomorphic(future_cover(twin).cover, future_cover(g).cover).isomorphic
        assert graphs_isomorphic(
            extended_future_cover(twin).graph, extended_future_cover(g).graph
        ).isomorphic
        assert graphs_isomorphic(
            bundle_graph(twin, "full").graph, bundle_graph(g, "full").graph
        ).isomorphic
        assert graphs_isomorphic(fiber_core(twin).graph, fiber_core(g).graph).isomorphic


def state_split(
    g: LabeledGraph, rng: random.Random, incoming: bool
) -> Optional[LabeledGraph]:
    """A seeded in-split (``incoming``) or out-split of g, or None when no
    vertex has two in-edges (out-edges).

    A vertex v with at least two in-edges (out-edges) gets a copy w, and a
    random nonempty proper subset of those edges moves from v to w; every
    out-edge (in-edge) of v is copied onto w.
    """
    end = 2 if incoming else 0
    at: dict[int, list[int]] = {}
    for k, e in enumerate(g.edges):
        at.setdefault(e[end], []).append(k)
    splittable = sorted(u for u, ks in at.items() if len(ks) > 1)
    if not splittable:
        return None
    v = rng.choice(splittable)
    moved = set(rng.sample(at[v], rng.randint(1, len(at[v]) - 1)))
    w = len(g.vertices)
    edges = []
    for k, (x, a, y) in enumerate(g.edges):
        if incoming:
            y = w if k in moved else y
            edges += [(x1, a, y) for x1 in ((x, w) if x == v else (x,))]
        else:
            x = w if k in moved else x
            edges += [(x, a, y1) for y1 in ((y, w) if y == v else (y,))]
    return LabeledGraph(g.symbols, g.vertices + (f"{g.vertices[v]}.{w}",), tuple(edges))


SPLIT_BASES = (
    [(name, load_fixture(name)) for name in BASE_FIXTURES]
    + [(f"rr-{i}", g) for i, g in enumerate(random_right_resolving_graphs(12, 11))]
    + [
        (f"nrr-{i}", g)
        for i, g in enumerate(random_essential_graphs(6, 13, False))
        if not check_right_resolving(g).ok
    ]
)
SPLITS = [
    (f"{name}-{'in' if incoming else 'out'}", g, h)
    for name, g in SPLIT_BASES
    for incoming in (True, False)
    if (h := state_split(g, random.Random(name), incoming)) is not None
]


def extension_summary(g: LabeledGraph):
    """The extended future cover, the sorted class sizes of its factor map
    onto the future cover, and whether it is a genuine extension."""
    ext = extended_future_cover(g)
    sizes = sorted(Counter(ext.factor_vertex).values())
    return ext, sizes, len(ext.graph.vertices) > len(ext.future.cover.vertices)


def test_splits_reach_both_verdicts_and_change_the_stable_core():
    assert any(not check_right_resolving(g).ok for _, g, _ in SPLITS)
    assert {extension_summary(g)[2] for _, g, _ in SPLITS} == {True, False}
    assert any(
        not graphs_isomorphic(stable_core(g).graph, stable_core(h).graph).isomorphic
        for _, g, h in SPLITS
    )


@pytest.mark.parametrize("name,g,h", SPLITS, ids=[name for name, _, _ in SPLITS])
def test_covers_invariant_under_state_splitting(name, g, h):
    assert len(h.vertices) == len(g.vertices) + 1
    ext_g, sizes_g, genuine_g = extension_summary(g)
    ext_h, sizes_h, genuine_h = extension_summary(h)
    assert graphs_isomorphic(ext_g.future.cover, ext_h.future.cover).isomorphic
    assert graphs_isomorphic(ext_g.graph, ext_h.graph).isomorphic
    assert sizes_g == sizes_h
    assert genuine_g == genuine_h
