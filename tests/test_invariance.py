"""The covers do not depend on how a presentation lists its vertices,
symbols or edges.

Each graph is rebuilt with its vertices permuted, its alphabet reordered
and its edges shuffled; the stable core, the future cover and the
extended future cover of the copy must be isomorphic (labels matched by
name) to those of the original.
"""

from __future__ import annotations

import random

import pytest

from soficovers import BASE_FIXTURES, load_fixture
from soficovers.analysis import graphs_isomorphic
from soficovers.covers import extended_future_cover, future_cover, stable_core
from soficovers.graphs import LabeledGraph
from soficovers.verification import random_right_resolving_graphs


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
