"""Data kept on a graph by ``graphs.kept``, and the follower quotient that
``follower_contains`` and ``merged_graph`` read from it.

A graph keeps its right-resolving report, follower partition, follower
quotient, transition monoid and stable core (the core's subset graph,
members and witnesses).  Equality, hashing and ``repr`` ignore them, a
build that raises keeps nothing, and no kept value refers back to its
graph, so a graph is freed by reference counting alone.  Since the core's
graph is kept, its follower quotient is kept once too, and regularity, the
covers and the lift of one graph share one assembly.  The extended future
cover's core is not kept on the future cover: its witnesses name words of
the base monoid.
"""

import gc
import weakref
from dataclasses import fields

import pytest

from soficovers import (
    BASE_FIXTURES,
    BudgetExceededError,
    GraphFormatError,
    NotRightResolvingError,
    check_regular,
    extended_future_cover,
    future_cover,
    graph_from_parts,
    load_fixture,
    merged_graph,
    stable_core,
)
from soficovers import covers
from soficovers.analysis import (
    follower_contains,
    follower_partition,
    follower_quotient,
    is_follower_separated,
)
from soficovers.codes import identity_square, lift_conjugacy
from soficovers.graphs import check_right_resolving, kept
from soficovers.relations import transition_monoid
from test_golden import NR70, cyclic_lift

BUILDS = {
    "check_right_resolving": check_right_resolving,
    "follower_partition": follower_partition,
    "follower_quotient": follower_quotient,
    "merged_graph": merged_graph,
    "follower_contains": lambda g: follower_contains(g, 0, len(g.vertices) - 1),
    "transition_monoid": transition_monoid,
    "stable_core": stable_core,
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
    assert stable_core(g).graph is stable_core(g).graph
    assert future_cover(g).bundle is future_cover(g).bundle


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


@pytest.mark.parametrize("over_budget", [False, True], ids=["not-essential", "over-budget"])
def test_failed_core_build_keeps_nothing(over_budget):
    """A monoid generation that overruns, or a graph that is not essential,
    leaves no core and no monoid behind."""
    g = lift() if over_budget else NOT_ESSENTIAL
    budget = len(transition_monoid(lift())) - 1 if over_budget else 10_000
    error = BudgetExceededError if over_budget else GraphFormatError
    before = kept_keys(g)
    texts = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            stable_core(g, budget)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert kept_keys(g) - before <= {"index"}  # the edge tables the walk read
    assert not {"_stable_core", "_transition_monoid"} & kept_keys(g)


def test_kept_core_still_checks_the_budget():
    g = lift()
    size = len(stable_core(g).monoid)
    message = rf"^transition monoid exceeds {size - 1} elements$"
    with pytest.raises(BudgetExceededError, match=message):
        stable_core(g, budget=size - 1)
    assert stable_core(g, budget=size).graph is stable_core(g).graph


@pytest.mark.parametrize("name", BASE_FIXTURES)
def test_one_graph_assembles_its_core_once(name, monkeypatch):
    g = load_fixture(name)
    assembled = []
    original = covers.assemble_subset_graph

    def spy(base, family, steps):
        assembled.append(base)
        return original(base, family, steps)

    monkeypatch.setattr(covers, "assemble_subset_graph", spy)
    check_regular(g)
    core = stable_core(g)
    fc = future_cover(g)
    ext = extended_future_cover(g)
    lifted = lift_conjugacy(identity_square(g))
    assert sum(base is g for base in assembled) == 1
    assert core.graph is fc.core.graph is ext.future.core.graph is lifted.core_g.graph
    assert fc.bundle is ext.future.bundle is lifted.future_g


def core_parts(core):
    return core.graph, core.members, core.witnesses


@pytest.mark.parametrize("g", [load_fixture(name) for name in BASE_FIXTURES] + [NR70],
                         ids=list(BASE_FIXTURES) + ["nr70"])
def test_extended_core_is_not_kept_on_the_cover(g):
    """The extended cover's witnesses name base words; the cover's own
    stable core names words of the cover's monoid, as on a fresh copy."""
    ext = extended_future_cover(g)
    cover = ext.future.cover
    copy = graph_from_parts(
        cover.symbols, cover.vertices,
        [(cover.vertices[u], cover.symbols[a], cover.vertices[v]) for u, a, v in cover.edges],
    )
    assert copy == cover and copy is not cover
    assert core_parts(stable_core(cover)) == core_parts(stable_core(copy))


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
        future_cover(g)
        assert len(kept_keys(g)) >= 5 and "_stable_core" in kept_keys(g)
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
