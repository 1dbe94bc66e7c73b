"""The closure routes against the idempotent x monoid loops they replace.

``stable_core`` and ``_tail_seed_masks`` compute the stable family and the
fiber tail seeds as closures of idempotent ranges and domains under the
subset step.  The reference function below keeps the direct loops: every
idempotent pushed through every monoid element.  Both routes must give
the same members, masks, costs and descriptions, and a stable set's
witness must spell the tail that the unbounded past loop names for it,
as must the fiber core's past-side tail seeds.

``co_stable_sets``, kept here as a reference route since no product
reads it, closes the idempotent domains under the backward step of the
graph itself; the stable family of the transposed graph must list the
same sets in the same order.

``extended_future_cover`` closes the future cover's idempotent ranges,
taken as images under the base monoid's idempotent words, and reads its
factor map off the witnesses.  It must give the family and graph of the
cover's own stable core, witnesses that replay on the cover, and the
factor map that the follower-maximal members and the route it replaces
(merge the extended cover, then map the merge onto the cover by
isomorphism) both name.  That the cover's monoid is an image of the base
monoid is checked directly: the base words' relations on the cover, first
word kept, must be the cover's own transition monoid in elements, order
and words.

The extended cover is also held against itself, as the paper calls it
canonical in the same way as the future cover: its own extended cover
must be isomorphic to it, and it must be follower-separated exactly when
its factor map is injective, that is when it is no genuine extension.
Its follower merge must be isomorphic to the future cover.  All three
hold on the graphs above, on 400 seeded right-resolving graphs and on
the 76 graphs of the benchmark's ``ladder`` pool, read through
``bench/pool.py``.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

from soficovers import BASE_FIXTURES, load_fixture
from soficovers.analysis import follower_contains, graphs_isomorphic, is_follower_separated
from soficovers.covers import (
    closure_words,
    extended_future_cover,
    future_cover,
    merged_graph,
    stable_core,
    subset_key,
    subset_steps,
)
from soficovers.errors import BudgetExceededError, EmptyShiftError
from soficovers.fibers import _tail_seed_masks
from soficovers.graphs import LabeledGraph, essentialize, graph_from_parts, require_essential
from soficovers.relations import mask_of, set_of, transition_monoid
from soficovers.verification import random_right_resolving_graphs
from test_relations import dom_mask, is_empty, transpose, word_relation

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))
import generators  # noqa: E402  (needs bench/ on the path)
import pool  # noqa: E402

MONOID_CAP = 1500
MAX_TAIL = 8


def reference_tail_seed_masks(g, monoid, max_tail):
    elements = [word_relation(g, w) for w in monoid.words]
    idempotents = [i for i in monoid.idempotent_indices() if not is_empty(elements[i])]
    middles = [(None, 0)] + [
        (i, len(w)) for i, w in enumerate(monoid.words) if len(w) <= max_tail
    ]

    def word_str(idx):
        return "" if idx is None else "".join(g.symbols[a] for a in monoid.words[idx])

    transposes = [transpose(m) for m in elements]
    past, forward = {}, {}
    for e in idempotents:
        ran_mask = elements[e].ran_mask()
        for m, cost in middles:
            mask = ran_mask if m is None else elements[m].image(ran_mask)
            if mask and (mask not in past or cost < past[mask][0]):
                past[mask] = (cost, f"...{word_str(e)}|{word_str(m)}")
    for f in idempotents:
        dom = dom_mask(elements[f])
        for m, cost in middles:
            if m is None:
                mask = dom
            else:
                mask = transposes[m].image(dom)
            if mask and (mask not in forward or cost < forward[mask][0]):
                forward[mask] = (cost, f"|{word_str(m)}{word_str(f)}...")
    return (
        sorted((mask, c, d) for mask, (c, d) in past.items()),
        sorted((mask, c, d) for mask, (c, d) in forward.items()),
    )


def random_essential_graphs(count, seed, right_resolving):
    """Seeded essential graphs on 7-10 raw vertices over 2-3 symbols.

    Each vertex emits a random nonempty label set; a label leads to one
    target, or to one or two when ``right_resolving`` is off.  Drafts that
    trim to nothing or exceed the monoid cap are skipped.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(7, 10)
        k = rng.randint(2, 3)
        triples = []
        for u in range(n):
            for a in sorted(rng.sample(range(k), rng.randint(1, k))):
                fan = 1 if right_resolving else rng.randint(1, 2)
                for v in sorted(rng.sample(range(n), fan)):
                    triples.append((f"v{u}", "abc"[a], f"v{v}"))
        g = graph_from_parts("abc"[:k], [f"v{v}" for v in range(n)], triples)
        try:
            g = essentialize(g)
            transition_monoid(g, MONOID_CAP)
        except (EmptyShiftError, BudgetExceededError):
            continue
        out.append(g)
    return out


# Two head words of one length reach the forward mask of v1 (bit 3), "bca"
# first in search order and "bbc" least; the seed keeps "|bbcbb...".
HEAD_TIE = graph_from_parts(
    "abc",
    ["v0", "v1", "v2", "v4", "v8", "v9"],
    [
        ("v0", "b", "v0"), ("v1", "a", "v4"), ("v1", "b", "v0"), ("v1", "c", "v1"),
        ("v2", "a", "v1"), ("v2", "c", "v4"), ("v4", "b", "v4"), ("v4", "c", "v9"),
        ("v8", "a", "v8"), ("v8", "b", "v2"), ("v8", "c", "v4"), ("v9", "a", "v0"),
        ("v9", "b", "v0"),
    ],
)

GRAPHS = (
    [(name, load_fixture(name)) for name in BASE_FIXTURES]
    + [("head-tie", HEAD_TIE)]
    + [(f"rr6-{i}", g) for i, g in enumerate(random_right_resolving_graphs(10, seed=7))]
    + [(f"rr-{i}", g) for i, g in enumerate(random_essential_graphs(12, 11, True))]
    + [(f"nrr-{i}", g) for i, g in enumerate(random_essential_graphs(12, 13, False))]
)


def tail_text(g, witness):
    """A stable-core witness (e, m) spelled as a past tail ``...e|m``."""
    e_word, m_word = ("".join(g.symbols[a] for a in w) for w in witness)
    return f"...{e_word}|{m_word}"


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_closure_routes_match_monoid_loops(name, g):
    core = stable_core(g)
    past, _ = reference_tail_seed_masks(g, core.monoid, math.inf)
    expected = {set_of(mask): text for mask, _, text in past}
    assert set(core.members) == set(expected)
    assert {m: tail_text(g, w) for m, w in zip(core.members, core.witnesses)} == expected
    assert _tail_seed_masks(g, MAX_TAIL, MONOID_CAP) == reference_tail_seed_masks(
        g, core.monoid, MAX_TAIL
    )


def test_generator_covers_large_non_right_resolving_graphs():
    sizes = [len(g.vertices) for name, g in GRAPHS if name.startswith("nrr-")]
    assert max(sizes) >= 7
    assert any(
        len({(u, a) for u, a, _ in g.edges}) < len(g.edges)
        for name, g in GRAPHS
        if name.startswith("nrr-")
    )


@pytest.mark.parametrize("max_tail", [0, 1, 2])
def test_short_tail_bounds_match(max_tail):
    for _, g in GRAPHS[:12]:
        monoid = transition_monoid(g)
        assert _tail_seed_masks(g, max_tail, MONOID_CAP) == reference_tail_seed_masks(
            g, monoid, max_tail
        )


@pytest.mark.parametrize("max_tail", [0, MAX_TAIL])
@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_tail_seeds_name_the_past_cover_witnesses(name, g, max_tail):
    core = stable_core(g, MONOID_CAP)
    witness = dict(zip(core.members, core.witnesses))
    past, _ = _tail_seed_masks(g, max_tail, MONOID_CAP)
    assert past
    for mask, _, text in past:
        assert text == tail_text(g, witness[set_of(mask)])


def co_stable_sets(base):
    """Start-vertex sets of right-infinite labeled paths, stabilized.

    The backward closure of the idempotent domains, mirroring
    :func:`covers.stable_core`; ordered by (size, members).
    """
    require_essential(base)
    _, domains, _ = transition_monoid(base).idempotent_ends
    family = closure_words(subset_steps(base.index.pred), domains)
    return tuple(map(set_of, sorted(family, key=subset_key)))


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_co_stable_sets_match_transposed_stable_core(name, g):
    transposed = LabeledGraph(g.symbols, g.vertices, tuple((v, a, u) for u, a, v in g.edges))
    assert co_stable_sets(g) == stable_core(transposed).members


def remerged(ext):
    """The factor map by the route it replaced: merge the extended cover by
    follower sets, then carry each class onto the future cover along the
    label-preserving isomorphism, unique as the cover is follower-separated."""
    merge = merged_graph(ext.graph)
    iso = graphs_isomorphic(merge.cover, ext.future.cover)
    assert iso.isomorphic
    return tuple(iso.mapping[c] for c in merge.factor_vertex)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_extended_cover_matches_the_covers_own_stable_core(name, g):
    ext = extended_future_cover(g)
    cover = ext.future.cover
    assert "_transition_monoid" not in vars(cover)
    assert ext.core.monoid is ext.future.core.monoid
    own = stable_core(cover)
    assert ext.core.members == own.members
    assert ext.graph == own.graph
    for members, (u, v) in zip(ext.core.members, ext.core.witnesses):
        e = word_relation(cover, u)
        assert e.compose(e) == e
        assert word_relation(cover, v).image(e.ran_mask()) == mask_of(members)
    maximal = [
        [x for x in sorted(members) if all(follower_contains(cover, y, x) for y in members)]
        for members in ext.core.members
    ]
    assert maximal == [[x] for x in ext.factor_vertex]
    assert ext.factor_vertex == remerged(ext)


def is_injective(factor_vertex):
    return len(set(factor_vertex)) == len(factor_vertex)


def assert_canonical_on_itself(ext):
    """The extended cover's own extended cover is isomorphic to it, its
    follower merge is isomorphic to the future cover, and it is
    follower-separated exactly when it is no genuine extension."""
    assert graphs_isomorphic(extended_future_cover(ext.graph).graph, ext.graph).isomorphic
    assert graphs_isomorphic(merged_graph(ext.graph).cover, ext.future.cover).isomorphic
    assert is_follower_separated(ext.graph) == is_injective(ext.factor_vertex)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_extended_cover_is_canonical_on_itself(name, g):
    assert_canonical_on_itself(extended_future_cover(g))


def test_extended_cover_is_canonical_on_random_graphs():
    """On 400 seeded right-resolving graphs of up to 8 vertices, some of
    them genuine extensions."""
    genuine = 0
    for g in random_right_resolving_graphs(400, 12345, max_vertices=8):
        ext = extended_future_cover(g)
        assert_canonical_on_itself(ext)
        genuine += not is_injective(ext.factor_vertex)
    assert genuine


def test_extended_cover_is_canonical_on_the_ladder_pool():
    """On every candidate of every ``ladder`` rung, some of them genuine
    extensions and some not."""
    rungs = pool.load()["ladder"].values()
    graphs = [generators.to_graph(pool.ladder_input(c)) for cands in rungs for c in cands]
    injective = []
    for g in graphs:
        ext = extended_future_cover(g)
        assert_canonical_on_itself(ext)
        injective.append(is_injective(ext.factor_vertex))
    assert len(graphs) == 76 and set(injective) == {True, False}


def test_graphs_include_genuine_extensions():
    injective = [is_injective(extended_future_cover(g).factor_vertex) for _, g in GRAPHS]
    assert set(injective) == {True, False}


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_cover_monoid_is_the_image_of_the_base_monoid(name, g):
    """Each base word acts on the future cover through its base relation, so
    the base monoid's elements, in order, map onto the cover's monoid; the
    first base word of each image is the cover's own breadth-first word."""
    fc = future_cover(g)
    cover = fc.cover
    assert cover.symbols == g.symbols
    fresh = LabeledGraph(cover.symbols, cover.vertices, cover.edges)  # keeps no monoid
    image = {}
    for word in fc.core.monoid.words:
        image.setdefault(word_relation(fresh, word), word)
    own = transition_monoid(fresh)
    assert list(image) == [word_relation(fresh, w) for w in own.words]
    assert list(image.values()) == own.words
