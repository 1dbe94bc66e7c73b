import pytest

from soficovers import (
    NotRightResolvingError,
    bundle_graph,
    co_stable_sets,
    fiber_core,
    fiber_count_periodic,
    fiber_ray,
    fiber_sets_on_periodic,
    graph_from_parts,
    load_fixture,
    normalize_periodic,
    stable_core,
)
from soficovers.fibers import maximal_dominated_path
from soficovers.graphs import edge_lookup, subset_step


def word_of(g, text):
    return normalize_periodic(tuple(g.symbols.index(ch) for ch in text))


def names(base, members):
    return frozenset(base.vertices[v] for v in members)


def test_bundle_full_example_b(example_b):
    bundle = bundle_graph(example_b, "full")
    assert {names(example_b, m) for m in bundle.members} == {
        frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})
    }
    edges = edge_lookup(example_b)
    for be in bundle.bundle_edges:
        sources = bundle.members[be.source]
        # the all-emit rule: every member emits the symbol, targets collected
        targets = frozenset(example_b.edges[edges[(m, be.symbol)]][2] for m in sources)
        assert targets == bundle.members[be.target]
        assert frozenset(edges[(m, be.symbol)] for m in sources) == frozenset(be.members)


def test_bundle_seeded_closure(example_b):
    seed = frozenset({0, 1})
    bundle = bundle_graph(example_b, "seeded", [seed])
    assert seed in bundle.members
    # closed under every all-emit step
    emit = edge_lookup(example_b)
    family = set(bundle.members)
    for members in family:
        for a in range(len(example_b.symbols)):
            if all((m, a) in emit for m in members):
                assert subset_step(example_b, members, a) in family


def test_bundle_rejects_non_right_resolving():
    g = graph_from_parts(
        ("0",), ("u", "v"), (("u", "0", "u"), ("u", "0", "v"), ("v", "0", "u"))
    )
    with pytest.raises(NotRightResolvingError):
        bundle_graph(g)


def test_co_stable_sets_example_b(example_b):
    sets = co_stable_sets(example_b)
    assert [names(example_b, s) for s in sets] == [
        frozenset({"a"}), frozenset({"a", "b"})
    ]


@pytest.mark.parametrize(
    "fixture,text,expected",
    [
        ("example_a", "0", 3),
        ("example_a", "2", 1),
        ("example_b", "2", 2),
        ("single_loop", "0", 1),
        ("even_shift", "1", 1),
    ],
)
def test_fiber_counts(fixture, text, expected):
    g = load_fixture(fixture)
    assert fiber_count_periodic(g, word_of(g, text)) == expected


def test_fiber_count_infinite():
    g = graph_from_parts(
        ("0",), ("u", "v"), (("u", "0", "u"), ("u", "0", "v"), ("v", "0", "u"))
    )
    assert fiber_count_periodic(g, word_of(g, "0")) == "infinite"


def test_fiber_sets_intersection_identity(example_a):
    data = fiber_sets_on_periodic(example_a, word_of(example_a, "23"))
    for k in range(2):
        assert data.fiber_sets[k] == data.past_sets[k] & data.forward_sets[k]


def test_fiber_sets_match_past_when_right_resolving():
    for name, text in (("example_a", "0"), ("example_b", "2"), ("even_shift", "1")):
        g = load_fixture(name)
        data = fiber_sets_on_periodic(g, word_of(g, text))
        assert data.fiber_sets == data.past_sets


def test_fiber_ray_example_b(example_b):
    ray = fiber_ray(example_b, word_of(example_b, "2"))
    assert ray.sets == (frozenset({0, 1}),)
    labels = {example_b.symbols[example_b.edges[k][1]] for k in ray.member_edges[0]}
    assert labels == {"2"}
    assert len(ray.member_edges[0]) == 2


def test_fiber_core_example_a(example_a):
    fcore = fiber_core(example_a)
    assert len(fcore.graph.vertices) == 7
    assert len(fcore.graph.edges) == 18
    assert all(seed.kind in ("periodic", "tail") for seed in fcore.seeds)
    realized = {record.members for record in fcore.seeds}
    assert realized <= set(fcore.members)


def test_unrealizable_word_rejected(even_shift):
    from soficovers import UnrealizableWordError

    with pytest.raises(UnrealizableWordError):
        fiber_sets_on_periodic(even_shift, word_of(even_shift, "01"))


def test_dominated_path_stabilizes(example_a):
    core = stable_core(example_a)
    idx = core.member_index()
    lookup = {(u, a): k for k, (u, a, v) in enumerate(core.graph.edges)}
    s = example_a.symbols.index
    full = idx[frozenset(range(3))]
    path = [lookup[(full, s("0"))]] * 6
    dom = maximal_dominated_path(core, path)
    assert dom.sets[-1] == frozenset(range(3))
    assert dom.stable_from <= len(path)
    for j in range(dom.stable_from, len(path)):
        u, a, v = core.graph.edges[path[j]]
        assert dom.sets[j + 1] == core.members[v]
