import pytest

from soficovers import (
    BASE_FIXTURES,
    GraphFormatError,
    NotRightResolvingError,
    check_regular,
    extended_future_cover,
    future_cover,
    graph_from_parts,
    graphs_isomorphic,
    load_fixture,
    merged_graph,
    normalize_periodic,
    past_set_ray,
    stable_core,
    stable_sets_from_tails,
    subset_construction,
)
from soficovers import covers
from soficovers.analysis import follower_partition
from soficovers.graphs import check_right_resolving, format_members, mask_image
from soficovers.relations import compose, mask_of, stabilized_range, transition_monoid
from soficovers.verification import random_right_resolving_graphs
from test_closure_routes import random_essential_graphs
from test_relations import omega_power, ran_mask, word_relation


def member_names(base, members):
    return {frozenset(base.vertices[v] for v in s) for s in members}


def fs(*names):
    return frozenset(names)


def test_subset_full_example_a(example_a):
    sub = subset_construction(example_a, "full")
    assert len(sub.graph.vertices) == 7
    assert len(sub.graph.edges) == 24
    assert member_names(example_a, sub.members) == {
        fs("a"), fs("b"), fs("c"), fs("a", "b"), fs("a", "c"), fs("b", "c"),
        fs("a", "b", "c"),
    }


def test_subset_reachable_drops_unreachable_set(example_a):
    sub = subset_construction(example_a, "reachable-from-full")
    assert fs("a", "b") not in member_names(example_a, sub.members)
    assert len(sub.graph.vertices) == 6
    assert len(sub.graph.edges) == 21


def test_subset_reachable_even_shift(even_shift):
    sub = subset_construction(even_shift, "reachable-from-full")
    assert member_names(even_shift, sub.members) == {fs("1", "2"), fs("1"), fs("2")}


def test_subset_single_loop():
    g = load_fixture("single_loop")
    sub = subset_construction(g, "full")
    assert len(sub.graph.vertices) == 1
    assert len(sub.graph.edges) == 1


def test_subset_is_right_resolving(example_a):
    from soficovers import check_right_resolving

    assert check_right_resolving(subset_construction(example_a, "full").graph).ok


def test_subset_full_mode_cap():
    big = graph_from_parts(
        ("0",),
        [f"v{i}" for i in range(17)],
        [(f"v{i}", "0", f"v{(i + 1) % 17}") for i in range(17)],
    )
    with pytest.raises(GraphFormatError):
        subset_construction(big, "full")
    assert len(subset_construction(big, "reachable-from-full").members) == 1


def test_subset_unknown_mode(example_a):
    with pytest.raises(GraphFormatError):
        subset_construction(example_a, "everything")


def test_stable_core_example_a(example_a):
    core = stable_core(example_a)
    assert member_names(example_a, core.members) == {
        fs("a"), fs("b"), fs("c"), fs("a", "c"), fs("b", "c"), fs("a", "b", "c")
    }
    assert len(core.graph.edges) == 21


def test_stable_core_example_b(example_b):
    core = stable_core(example_b)
    assert member_names(example_b, core.members) == {fs("a"), fs("b"), fs("a", "b")}
    assert len(core.graph.edges) == 8


def test_stable_core_witnesses_recompute(example_a, example_b):
    for g in (example_a, example_b):
        core = stable_core(g)
        for members, (u, v) in zip(core.members, core.witnesses):
            tail = omega_power(word_relation(g, u))
            if v:
                tail = compose(tail, word_relation(g, v))
            assert ran_mask(tail) == mask_of(members)


def test_stable_core_hereditary():
    for name in BASE_FIXTURES:
        g = load_fixture(name)
        core = stable_core(g)
        family = {mask_of(m) for m in core.members}
        for members in family:
            for a in range(len(g.symbols)):
                nxt = mask_image(g.index.rows[a], members)
                if nxt:
                    assert nxt in family, (name, format_members(g, members), a)


def test_oracle_agrees_on_fixtures():
    for name in BASE_FIXTURES:
        g = load_fixture(name)
        core = stable_core(g)
        oracle = stable_sets_from_tails(g, 2 * len(core.monoid))
        assert set(oracle) == set(core.members), name


def test_oracle_agrees_on_random_graphs():
    graphs = random_right_resolving_graphs(6, seed=99)
    graphs += random_essential_graphs(6, 13, right_resolving=False)
    assert not all(check_right_resolving(g).ok for g in graphs)
    for g in graphs:
        core = stable_core(g)
        oracle = stable_sets_from_tails(g, 2 * len(core.monoid))
        assert set(oracle) == set(core.members)


def test_tail_oracle_pushes_each_range_once(example_a, monkeypatch):
    """One push of each distinct nonempty stabilized range through each
    relation.  The spy replaces ``covers.mask_image`` only, so the steps
    of ``relations.stabilized_range`` that find a range do not count."""
    # the words up to max_len reach all
    relations = [word_relation(example_a, w) for w in transition_monoid(example_a).words]
    ranges = {stabilized_range(rel) for rel in relations} - {0}
    pushes = 0

    def image(rows, mask):
        nonlocal pushes
        pushes += 1
        return mask_image(rows, mask)

    monkeypatch.setattr(covers, "mask_image", image)
    stable_sets_from_tails(example_a, 2 * len(relations))
    assert pushes == len(ranges) * len(relations)


def test_chain_needs_stabilization():
    g = load_fixture("chain_stabilization")
    core = stable_core(g)
    # {2,3} is reachable by determinization but no left tail stabilizes on it
    reachable = member_names(g, subset_construction(g, "reachable-from-full").members)
    stable = member_names(g, core.members)
    assert fs("2", "3") in reachable
    assert fs("2", "3") not in stable
    assert stable == {fs("1"), fs("2"), fs("3")}


def test_merged_identity_on_follower_separated(example_b):
    bundle = merged_graph(example_b)
    assert all(len(cls) == 1 for cls in bundle.classes)
    assert graphs_isomorphic(bundle.cover, example_b).isomorphic


def test_merged_doubled_loop():
    g = graph_from_parts(("0",), ("u", "v"), (("u", "0", "u"), ("v", "0", "v")))
    bundle = merged_graph(g)
    assert len(bundle.cover.vertices) == 1
    assert len(bundle.cover.edges) == 1


def test_merged_rejects_non_right_resolving():
    g = graph_from_parts(
        ("0",), ("u", "v"), (("u", "0", "u"), ("u", "0", "v"), ("v", "0", "u"))
    )
    with pytest.raises(NotRightResolvingError):
        merged_graph(g)


def test_merged_factor_edges_label_preserving(example_a):
    core = stable_core(example_a)
    bundle = merged_graph(core.graph)
    for k, (u, a, v) in enumerate(core.graph.edges):
        mu, ma, mv = bundle.cover.edges[bundle.factor_edge[k]]
        assert bundle.cover.symbols[ma] == core.graph.symbols[a]
        assert mu == bundle.factor_vertex[u]
        assert mv == bundle.factor_vertex[v]


def test_future_cover_example_a(example_a):
    fc = future_cover(example_a)
    assert graphs_isomorphic(fc.cover, fc.core.graph).isomorphic


def test_future_cover_example_b(example_b):
    fc = future_cover(example_b)
    assert graphs_isomorphic(fc.cover, example_b).isomorphic


def test_future_cover_even_shift(even_shift):
    fc = future_cover(even_shift)
    assert len(fc.cover.vertices) == 3
    assert all(len(part) == 1 for part in follower_partition(fc.cover))


def test_extended_future_cover_example_b(example_b):
    ext = extended_future_cover(example_b)
    assert len(ext.graph.vertices) == 3
    assert len(ext.graph.edges) == 8
    assert graphs_isomorphic(merged_graph(ext.graph).cover, example_b).isomorphic


def test_extended_matches_future_when_separated(example_a):
    ext = extended_future_cover(example_a)
    fc = future_cover(example_a)
    assert graphs_isomorphic(ext.graph, fc.cover).isomorphic


def test_idempotence_on_fixtures():
    for name in BASE_FIXTURES:
        cover = future_cover(load_fixture(name)).cover
        again = future_cover(cover).cover
        assert graphs_isomorphic(cover, again).isomorphic, name


def test_regular_fixture_covers():
    for name in BASE_FIXTURES:
        g = load_fixture(name)
        assert check_regular(stable_core(g).graph).ok, name


def test_regular_fails_exactly_at_q():
    g = load_fixture("two_loops_vs_one")
    report = check_regular(g)
    assert not report.ok
    assert [g.vertices[v] for v in report.failing_vertices()] == ["q"]
    passing = [v for v in range(len(g.vertices)) if report.regular[v]]
    assert all(report.witness[v] is not None for v in passing)


def test_past_set_ray_phases(example_a):
    core = stable_core(example_a)
    s = example_a.symbols.index
    p = normalize_periodic((s("0"),))
    ray = past_set_ray(core, p)
    assert len(ray.edges) == 1
    assert core.members[ray.vertices[0]] == frozenset(range(3))
    u, a, v = core.graph.edges[ray.edges[0]]
    assert core.graph.symbols[a] == "0"
    assert u == ray.vertices[0] and v == ray.vertices[0]


def test_past_set_ray_rotates(example_a):
    core = stable_core(example_a)
    s = example_a.symbols.index
    p = normalize_periodic((s("2"), s("3")))
    ray = past_set_ray(core, p)
    assert len(ray.edges) == 2
    for k in range(2):
        u, a, v = core.graph.edges[ray.edges[k]]
        assert core.graph.symbols[a] == example_a.symbols[p.at(k)]
        assert u == ray.vertices[k]
        assert v == ray.vertices[(k + 1) % 2]
