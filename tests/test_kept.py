"""Data kept on a graph by ``graphs.kept``, and the follower quotient that
``follower_contains`` and ``merged_graph`` read from it.

A graph keeps its right-resolving report, follower partition, follower
quotient and transition monoid.  Equality, hashing and ``repr`` ignore
them, a build that raises keeps nothing, and no kept value refers back to
its graph, so a graph is freed by reference counting alone.
"""

import gc
import weakref
from dataclasses import fields

import pytest

from soficovers import (
    GraphFormatError,
    NotRightResolvingError,
    graph_from_parts,
    load_fixture,
    merged_graph,
)
from soficovers.analysis import (
    follower_contains,
    follower_partition,
    follower_quotient,
    is_follower_separated,
)
from soficovers.graphs import check_right_resolving, kept
from soficovers.relations import transition_monoid
from test_golden import cyclic_lift

BUILDS = {
    "check_right_resolving": check_right_resolving,
    "follower_partition": follower_partition,
    "follower_quotient": follower_quotient,
    "merged_graph": merged_graph,
    "follower_contains": lambda g: follower_contains(g, 0, len(g.vertices) - 1),
    "transition_monoid": transition_monoid,
}


def lift():
    """example_a on three sheets: every follower class holds three vertices."""
    return cyclic_lift(load_fixture("example_a"), 3, 1)


def kept_keys(g):
    return set(vars(g)) - {f.name for f in fields(g)}


def test_kept_builds_once():
    g = load_fixture("example_a")
    calls = []

    def build(graph):
        calls.append(graph)
        return len(graph.vertices)

    assert kept(g, "_probe", build) == kept(g, "_probe", build) == 3
    assert calls == [g]


def test_kept_values_are_reused():
    g = lift()
    for build in (check_right_resolving, follower_partition, follower_quotient):
        assert build(g) is build(g)
    assert merged_graph(g) is follower_quotient(g)


@pytest.mark.parametrize("name", BUILDS)
def test_kept_data_leaves_equality_alone(name):
    g, copy = lift(), lift()
    before = (hash(g), repr(g))
    BUILDS[name](g)
    assert kept_keys(g)
    assert g == copy and (hash(g), repr(g)) == before == (hash(copy), repr(copy))
    assert {g: 1}[copy] == 1


NOT_ESSENTIAL = graph_from_parts(("0", "1"), ("u", "v"), (("u", "0", "u"), ("u", "1", "v")))
NOT_RESOLVING = graph_from_parts(
    ("0",), ("u", "v"), (("u", "0", "u"), ("u", "0", "v"), ("v", "0", "u"))
)


@pytest.mark.parametrize(
    "g,error",
    [(NOT_ESSENTIAL, GraphFormatError), (NOT_RESOLVING, NotRightResolvingError)],
    ids=["not-essential", "not-right-resolving"],
)
@pytest.mark.parametrize(
    "name", ["follower_partition", "follower_quotient", "merged_graph", "follower_contains"]
)
def test_failed_build_keeps_nothing(g, error, name):
    check_right_resolving(g)
    before = kept_keys(g)
    texts = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            BUILDS[name](g)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert kept_keys(g) == before


def test_kept_data_makes_no_reference_cycle():
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = lift()
        ref = weakref.ref(g)
        follower_contains(g, 0, 1)
        merged_graph(g)
        check_right_resolving(g)
        transition_monoid(g)
        assert len(kept_keys(g)) >= 4
        del g
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("u,v", [(-1, 0), (0, -1), (0, 3)])
def test_follower_contains_rejects_vertices_out_of_range(u, v):
    g = load_fixture("example_a")
    assert len(g.vertices) == 3
    bad = u if u not in range(3) else v
    with pytest.raises(IndexError, match=rf"^vertex {bad} out of range"):
        follower_contains(g, u, v)


def test_quotient_cover_is_the_base_graph():
    """A cyclic lift merges back onto its base: one class per fiber, named
    after its sheet-0 vertex, with the base's edges in the base's order."""
    base = load_fixture("example_a")
    quotient = follower_quotient(lift())
    factor, cover = quotient.factor_vertex, quotient.cover
    n = len(base.vertices)
    assert factor == tuple(v % n for v in range(3 * n))
    assert cover.vertices == tuple(f"{v}.0" for v in base.vertices)
    assert cover.edges == base.edges
    assert is_follower_separated(cover)
