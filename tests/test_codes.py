from dataclasses import replace

import pytest

from soficovers import (
    GraphFormatError,
    LabelPathDiedError,
    SlidingBlockCode,
    VerificationError,
    Window,
    apply_code,
    apply_code_cyclic,
    component_intervals,
    fill_gap,
    higher_block,
    identity_square,
    lift_conjugacy,
    load_fixture,
    renaming_square,
    stable_core,
    verify_lift_diagrams,
    verify_square,
)
from soficovers.codes import inverse_square, map_bundle_path, rule_entries
from soficovers.graphs import LabeledGraph, edge_lookup, path_window, window_labels


def identity_code(alphabet):
    return SlidingBlockCode(alphabet, alphabet, 0, lambda block: block[0])


def test_apply_identity_code():
    code = identity_code(("x", "y"))
    w = Window(2, ("x", "y", "y"))
    assert apply_code(code, w) == w


def test_apply_code_shrinks_by_radius(even_shift):
    psi = higher_block(even_shift, 2).square.label_code
    assert psi.radius == 1
    out = apply_code(psi, Window(0, ("0", "0", "1", "1")))
    assert out.start == 1
    assert out.items == ("0.1", "1.1")


def test_apply_code_rejects_short_window(even_shift):
    psi = higher_block(even_shift, 2).square.label_code
    with pytest.raises(GraphFormatError):
        apply_code(psi, Window(0, ("0",)))


def test_apply_code_rejects_unmapped_block():
    partial = SlidingBlockCode(("a", "b"), ("x",), 0, {("a",): "x"})
    with pytest.raises(GraphFormatError):
        apply_code(partial, Window(0, ("b",)))


def test_apply_code_cyclic_constant(example_b):
    psi = higher_block(example_b, 2).square.label_code
    assert apply_code_cyclic(psi, ("2",)) == ("2.2",)


def test_apply_code_cyclic_rotates(example_a):
    psi = higher_block(example_a, 2).square.label_code
    out = apply_code_cyclic(psi, ("2", "3"))
    assert len(out) == 2
    assert out == ("2.3", "3.2")


def test_higher_block_even_shift_sizes(even_shift):
    hb = higher_block(even_shift, 2)
    assert len(hb.graph.vertices) == 3
    assert len(hb.graph.edges) == 5


def test_higher_block_one_is_identity(example_b):
    hb = higher_block(example_b, 1)
    assert hb.graph is example_b
    assert hb.square.edge_code.radius == 0


def test_verify_square_identity(example_a):
    assert verify_square(identity_square(example_a)).ok


def test_verify_square_higher_block(example_b):
    assert verify_square(higher_block(example_b, 2).square).ok


def corrupt_label_code(square):
    rule = dict(rule_entries(square.label_code))
    block = ("2", "2", "2")
    wrong = next(s for s in square.label_code.output_alphabet if s != rule[block])
    rule[block] = wrong
    bad = SlidingBlockCode(
        square.label_code.input_alphabet,
        square.label_code.output_alphabet,
        square.label_code.radius,
        rule,
    )
    return replace(square, label_code=bad)


def test_verify_square_corrupted_rule(example_b):
    bad = corrupt_label_code(higher_block(example_b, 2).square)
    report = verify_square(bad)
    assert not report.ok
    assert all(c.detail for c in report.failures())  # offending window is named


def test_component_intervals_split(example_a):
    core = stable_core(example_a)
    idx = core.member_index()
    lookup = edge_lookup(core.graph)
    s = example_a.symbols.index
    abc = idx[frozenset({0, 1, 2})]
    ac = idx[frozenset({0, 2})]
    bc = idx[frozenset({1, 2})]
    path = [
        lookup[(abc, s("2"))],  # {a,b,c} -2-> {a,c}
        lookup[(ac, s("0"))],   # {a,c} -0-> {b,c}
        lookup[(bc, s("0"))],   # {b,c} -0-> {a,c}
    ]
    assert core.graph.edges[path[0]][2] == ac
    assert core.graph.edges[path[1]][2] == bc
    intervals = component_intervals(core, path_window(core.graph, path))
    assert [(i.start, i.end) for i in intervals] == [(0, 0), (1, 3)]
    assert intervals[0].component != intervals[1].component


def test_component_intervals_whole_window(example_a):
    core = stable_core(example_a)
    idx = core.member_index()
    lookup = edge_lookup(core.graph)
    s = example_a.symbols.index
    a, b, c = (idx[frozenset({v})] for v in range(3))
    path = [lookup[(b, s("2"))], lookup[(c, s("3"))], lookup[(b, s("2"))]]
    intervals = component_intervals(core, path_window(core.graph, path))
    assert [(i.start, i.end) for i in intervals] == [(0, 3)]


def components_crossing_window(base):
    """A stable-core window crossing from the {a,b} loop into the {a} loop."""
    core = stable_core(base)
    idx = core.member_index()
    lookup = edge_lookup(core.graph)
    sym = base.symbols.index
    both = idx[frozenset({0, 1})]
    single = idx[frozenset({0})]
    loop_both = lookup[(both, sym("2"))]
    crossing = lookup[(both, sym("1"))]
    loop_single = lookup[(single, sym("1"))]
    return core, path_window(core.graph, [loop_both] * 8 + [crossing] + [loop_single] * 8)


def test_fill_gap_identity(example_b):
    square = identity_square(example_b)
    lifted = lift_conjugacy(square)
    _, window = components_crossing_window(example_b)
    assert lifted.kappa == 1
    q = fill_gap(lifted, window, (0, 7), (9, 16))
    assert q.start == 1
    assert q.items == window.segment(1, 15).items


def test_fill_gap_corrupted_rule_dies(example_b):
    bad = corrupt_label_code(higher_block(example_b, 2).square)
    lifted = lift_conjugacy(bad, verify=False)
    _, window = components_crossing_window(example_b)
    with pytest.raises((LabelPathDiedError, VerificationError)):
        fill_gap(lifted, window, (0, 7), (9, 16))


def test_fill_gap_rejects_short_intervals(example_b):
    lifted = lift_conjugacy(identity_square(example_b))
    _, window = components_crossing_window(example_b)
    with pytest.raises(GraphFormatError):
        fill_gap(lifted, window, (0, 2), (9, 16))


def test_lift_identity_acts_trivially(example_b):
    lifted = lift_conjugacy(identity_square(example_b))
    _, window = components_crossing_window(example_b)
    d = lifted.block_radius
    grown = grow_window(lifted, window, 2 * d + 3)
    out = lifted.apply_window(grown)
    assert out.items == grown.segment(grown.start + d, grown.end - d).items


def test_lifted_rule_entries_follow_apply_window(example_b):
    lifted = lift_conjugacy(higher_block(example_b, 2).square)
    assert rule_entries(lifted.code) == ()
    _, window = components_crossing_window(example_b)
    d = lifted.block_radius
    grown = grow_window(lifted, window, 2 * d + 6)
    out = lifted.apply_window(grown)
    entries = dict(rule_entries(lifted.code))
    g_names = lifted.core_g.graph.edge_names()
    h_names = lifted.core_h.graph.edge_names()
    blocks = {}
    for t in range(out.start, out.end + 1):
        block = tuple(g_names[k] for k in grown.segment(t - d, t + d).items)
        blocks[block] = h_names[out[t]]
    assert entries and entries == blocks
    for block, name in blocks.items():  # the name-level rule reads the same memo
        assert lifted.code.output_for(block) == name
    assert dict(rule_entries(lifted.code)) == blocks


def grow_window(lifted, window, length):
    """Extend a core window on the right by label-following a loop."""
    g = lifted.core_g.graph
    edges = list(window.items)
    out = {}
    for k, (u, a, v) in enumerate(g.edges):
        out.setdefault(u, []).append(k)
    while len(edges) < length:
        tail = g.edges[edges[-1]][2]
        edges.append(out[tail][0])
    return path_window(g, edges, start=window.start)


def test_lift_renaming_square(example_b):
    renamed = LabeledGraph(example_b.symbols, ("x", "y"), example_b.edges)
    square = renaming_square(example_b, renamed, (0, 1))
    lifted = lift_conjugacy(square)
    report = verify_lift_diagrams(lifted, max_period=3, walks=3)
    assert report.ok, [c for c in report.checks if not c.ok]


def test_round_trip_higher_block(example_b):
    hb = higher_block(example_b, 2)
    lifted = lift_conjugacy(hb.square)
    back = lift_conjugacy(inverse_square(hb.square))
    report = verify_lift_diagrams(lifted, inverse_lifted=back, max_period=3, walks=3)
    assert report.ok, [c for c in report.checks if not c.ok]
    assert any(c.name == "round-trip-identity" for c in report.checks)
    assert any(c.name == "bounded-verification-note" for c in report.checks)


def test_map_bundle_path_singletons(example_b):
    from soficovers import bundle_graph

    square = identity_square(example_b)
    bundle = bundle_graph(example_b, "full")
    find = {(bundle.members[be.source], be.symbol): be for be in bundle.bundle_edges}
    sym = example_b.symbols.index
    # singleton bundle path along {a} -0-> {b} -1-> {a}
    path = [find[(frozenset({0}), sym("0"))], find[(frozenset({1}), sym("1"))]]
    mapped = map_bundle_path(square, path)
    assert [m.members for m in mapped] == [be.members for be in path]
    assert [m.source_set for m in mapped] == [frozenset({0}), frozenset({1})]


def test_lift_rejects_malformed_square(example_a, example_b):
    square = identity_square(example_a)
    broken = replace(square, graph_h=example_b)
    with pytest.raises((GraphFormatError, VerificationError)):
        lift_conjugacy(broken)
