import random
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from itertools import product

import pytest

from soficovers import (
    BASE_FIXTURES,
    GraphFormatError,
    LabelPathDiedError,
    SlidingBlockCode,
    VerificationError,
    Window,
    apply_code,
    apply_code_cyclic,
    apply_lifted,
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
from soficovers import codes, verification
from soficovers.analysis import components_and_sources, periodic_points
from soficovers.codes import (
    _component_windows,
    _edge_cycles,
    _fill_between,
    _follow,
    _map_component_window,
    _member_path_image,
    _runs,
    _unroll_cycle,
    _vertex_sequence,
    _walk,
    _window_edge_components,
    inverse_square,
    lift_parameters,
    member_paths_of_window,
    sample_core_windows,
)
from soficovers.covers import past_set_ray
from soficovers.graphs import (
    LabeledGraph,
    edge_lookup,
    graph_from_parts,
    path_window,
)
from soficovers.verification import _corrupted_higher_block_square, run_criterion


def identity_code(alphabet):
    return SlidingBlockCode(alphabet, alphabet, 0, {(k,): k for k in range(len(alphabet))})


def test_apply_identity_code():
    code = identity_code(("x", "y"))
    w = Window(2, (0, 1, 1))
    assert apply_code(code, w) == w


def test_apply_code_shrinks_by_radius(even_shift):
    psi = higher_block(even_shift, 2).label_code
    assert psi.radius == 1
    s = psi.input_alphabet.index
    out = apply_code(psi, Window(0, (s("0"), s("0"), s("1"), s("1"))))
    assert out.start == 1
    assert out.items == tuple(psi.output_alphabet.index(w) for w in ("0.1", "1.1"))


def test_apply_code_rejects_short_window(even_shift):
    psi = higher_block(even_shift, 2).label_code
    with pytest.raises(GraphFormatError):
        apply_code(psi, Window(0, ("0",)))


def test_apply_code_rejects_unmapped_block():
    partial = SlidingBlockCode(("a", "b"), ("x",), 0, {(0,): 0})
    with pytest.raises(GraphFormatError, match=r"block \('b',\)"):
        apply_code(partial, Window(0, (1,)))


def table_code_windows(square, rng):
    """Seeded windows for each code of ``square``: walks on the graph the
    code reads (their labels for a label code), and as many sequences drawn
    from the input alphabet, which need not be paths."""
    g, h = square.graph_g, square.graph_h
    for code, graph, labels in (
        (square.edge_code, g, False),
        (square.edge_code_inv, h, False),
        (square.label_code, g, True),
        (square.label_code_inv, h, True),
    ):
        windows = []
        for length in range(2 * code.radius + 1, 2 * code.radius + 9):
            items = _walk(graph, graph.index.out, rng.randrange(len(graph.vertices)), length, rng)
            if labels:
                items = tuple(graph.edges[k][1] for k in items)
            drawn = tuple(rng.randrange(len(code.input_alphabet)) for _ in range(length))
            windows += [Window(length, items), Window(-length, drawn)]
        yield code, windows


def test_table_rules_apply_as_block_by_block():
    missing = 0
    rng = random.Random(22)
    for name, n in product(BASE_FIXTURES, (1, 2, 3)):
        for code, windows in table_code_windows(higher_block(load_fixture(name), n), rng):
            assert type(code.rule) is dict
            for w in windows:
                out = outcome(apply_code, code, w)
                assert out == outcome(block_by_block, code, w), (name, n, w)
                if isinstance(out, tuple):
                    assert out[0] == "GraphFormatError"
                    assert out[1].startswith("code has no rule for block (")
                    missing += 1
    assert missing


def test_apply_code_cyclic_constant(example_b):
    psi = higher_block(example_b, 2).label_code
    s = psi.input_alphabet.index
    assert apply_code_cyclic(psi, (s("2"),)) == (psi.output_alphabet.index("2.2"),)
    assert apply_code_cyclic(psi, ()) == ()


def test_apply_code_cyclic_rotates(example_a):
    psi = higher_block(example_a, 2).label_code
    s = psi.input_alphabet.index
    out = apply_code_cyclic(psi, (s("2"), s("3")))
    assert len(out) == 2
    assert out == tuple(psi.output_alphabet.index(w) for w in ("2.3", "3.2"))


def unrolled_reference(code, word):
    """``apply_code_cyclic`` as ``apply_code`` on one period unrolled by
    the radius on each side."""
    n, r = len(word), code.radius
    if not n:
        return ()
    return apply_code(code, Window(0, tuple(word[(t - r) % n] for t in range(n + 2 * r)))).items


def test_apply_code_cyclic_matches_the_unrolled_word():
    rng = random.Random(28)
    wrapped = missing = 0
    for name, n in product(BASE_FIXTURES, (1, 2, 3)):
        square = higher_block(load_fixture(name), n)
        g, h = square.graph_g, square.graph_h
        for code, graph, labels in (
            (square.edge_code, g, False),
            (square.edge_code_inv, h, False),
            (square.label_code, g, True),
            (square.label_code_inv, h, True),
        ):
            words = [()] + _edge_cycles(graph, 3)
            if labels:
                words = [tuple(graph.edges[k][1] for k in w) for w in words]
            alphabet = len(code.input_alphabet)
            words += [
                tuple(rng.randrange(alphabet) for _ in range(length))
                for length in range(1, 2 * code.radius + 3)
            ]
            for word in words:
                out = outcome(apply_code_cyclic, code, word)
                assert out == outcome(unrolled_reference, code, word), (name, n, word)
                if out and isinstance(out[0], str):  # an error outcome
                    assert out[0] == "GraphFormatError"
                    assert out[1].startswith("code has no rule for block (")
                    missing += 1
                elif 0 < len(word) < code.radius:
                    wrapped += 1
    assert wrapped and missing


def test_higher_block_even_shift_sizes(even_shift):
    hb = higher_block(even_shift, 2)
    assert len(hb.graph_h.vertices) == 3
    assert len(hb.graph_h.edges) == 5


def test_higher_block_one_is_identity(example_b):
    hb = higher_block(example_b, 1)
    assert hb.graph_g is hb.graph_h is example_b
    assert hb.edge_code.radius == 0


@pytest.mark.parametrize("name", BASE_FIXTURES)
def test_identity_square_keeps_its_index_tables(name):
    """The identity square, and the 1-block recoding, is the identity
    renaming: each code has radius 0 and the table k -> k in index order."""
    g = load_fixture(name)
    edge_rule = {(k,): k for k in range(len(g.edges))}
    label_rule = {(a,): a for a in range(len(g.symbols))}
    for square in (identity_square(g), higher_block(g, 1)):
        assert square.graph_g is square.graph_h is g
        for code, rule in (
            (square.edge_code, edge_rule),
            (square.edge_code_inv, edge_rule),
            (square.label_code, label_rule),
            (square.label_code_inv, label_rule),
        ):
            assert code.radius == 0
            assert list(code.rule.items()) == list(rule.items())
        assert square.edge_code.input_alphabet == square.edge_code.output_alphabet == g.edge_names()
        assert square.label_code.input_alphabet == square.label_code.output_alphabet == g.symbols


def test_verify_square_identity(example_a):
    assert verify_square(identity_square(example_a)).ok


def test_verify_square_higher_block(example_b):
    assert verify_square(higher_block(example_b, 2)).ok


def test_verify_square_at_period_zero(example_b):
    report = verify_square(higher_block(example_b, 2), max_period=0)
    (cycles,) = [c for c in report.checks if c.name == "periodic-points"]
    assert cycles.ok
    assert cycles.detail == "0 primitive cycles up to period 0"


def corrupt_label_code(square):
    rule = dict(square.label_code.rule)
    block = tuple(square.label_code.input_alphabet.index(s) for s in ("2", "2", "2"))
    wrong = next(k for k in range(len(square.label_code.output_alphabet)) if k != rule[block])
    rule[block] = wrong
    bad = SlidingBlockCode(
        square.label_code.input_alphabet,
        square.label_code.output_alphabet,
        square.label_code.radius,
        rule,
    )
    return replace(square, label_code=bad)


def test_verify_square_corrupted_rule(example_b):
    bad = corrupt_label_code(higher_block(example_b, 2))
    report = verify_square(bad)
    assert not report.ok
    assert all(c.detail for c in report.failures())  # offending window is named


# ---------------------------------------------------------------------------
# Reference routes that no product reaches: component intervals of a core
# window, and the image of a bundle path through the edge code.


@dataclass(frozen=True)
class ComponentInterval:
    """Maximal run of window vertex positions inside one component."""

    start: int
    end: int
    component: int


def component_intervals(core, window):
    """Component intervals of a stable-core path window, in vertex positions
    window.start .. window.end + 1.

    Every interval is checked homogeneous: member sets of its vertices all
    have the component's common size.
    """
    info = components_and_sources(core.graph)
    verts = _vertex_sequence(core.graph, window)
    intervals = []
    for first, last, c in _runs([info.component_of[v] for v in verts], window.start):
        # the run lies in component c, so it is homogeneous when c is
        if len({len(core.members[v]) for v in info.components[c]}) != 1:
            raise VerificationError(
                f"component interval [{first}, {last}] is not homogeneous"
            )
        intervals.append(ComponentInterval(first, last, c))
    return intervals


def bundle_member_paths(base, bundle_path):
    """Unbundle a path of all-member bundle edges, each given by its member
    edges, into its parallel base paths, one per source vertex of the
    first bundle edge."""
    if not bundle_path:
        return []
    by_source = []
    for members in bundle_path:
        table = {base.edges[k][0]: k for k in members}
        if len(table) != len(members):
            raise VerificationError("bundle edge has two members from one vertex")
        by_source.append(table)
    paths = []
    for v0 in sorted(by_source[0]):
        v = v0
        path = []
        for table in by_source:
            if v not in table:
                raise VerificationError("bundle path is not source-complete")
            k = table[v]
            path.append(k)
            v = base.edges[k][2]
        paths.append(tuple(path))
    return paths


def map_bundle_path(square, bundle_path):
    """Image of an all-member bundle path from position 0: unbundle, map
    each base path through the edge code, bundle the images, trimmed by
    the code radius."""
    paths = bundle_member_paths(square.graph_g, bundle_path)
    return reference_map_parallel_paths(square, paths, 0, square.edge_code.radius)


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
    bad = corrupt_label_code(higher_block(example_b, 2))
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
    out = apply_lifted(lifted, grown)
    assert out.items == grown.segment(grown.start + d, grown.end - d).items


def test_lifted_rule_entries_follow_apply_window(example_b):
    lifted = lift_conjugacy(higher_block(example_b, 2))
    _, window = components_crossing_window(example_b)
    d = lifted.block_radius
    grown = grow_window(lifted, window, 2 * d + 6)
    out = apply_lifted(lifted, grown)
    assert (out.start, len(out)) == (grown.start + d, 6)
    fresh = relifted(lifted)
    for t in range(out.start, out.end + 1):  # each block alone, with and without the memos
        block = Window(0, grown.segment(t - d, t + d).items)
        assert apply_lifted(lifted, block).items == (out[t],)
        assert apply_lifted(fresh, block).items == (out[t],)


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
    return path_window(g, edges).shifted(window.start)


def test_lift_renaming_square(example_b):
    renamed = LabeledGraph(example_b.symbols, ("x", "y"), example_b.edges)
    square = renaming_square(example_b, renamed, (0, 1))
    lifted = lift_conjugacy(square)
    report = verify_lift_diagrams(lifted, max_period=3, walks=3)
    assert report.ok, [c for c in report.checks if not c.ok]


def test_round_trip_higher_block(example_b):
    hb = higher_block(example_b, 2)
    lifted = lift_conjugacy(hb)
    back = lift_conjugacy(inverse_square(hb))
    report = verify_lift_diagrams(lifted, inverse_lifted=back, max_period=3, walks=3)
    assert report.ok, [c for c in report.checks if not c.ok]
    assert any(c.name == "round-trip-identity" for c in report.checks)
    assert any(c.name == "bounded-verification-note" for c in report.checks)


def test_corrupted_lift_diagram_details(example_b):
    """The failing sweeps keep their counts and first details verbatim."""
    bad_square = _corrupted_higher_block_square(example_b, ("2", "2", "2"))
    lifted = lift_conjugacy(bad_square, verify=False)
    report = verify_lift_diagrams(lifted, max_period=3, walks=3)
    assert not report.ok
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [
        (
            "labels-commute",
            False,
            "8/24 failed; first: labels disagree on a window starting with edge 7",
        ),
        (
            "induced-cover-commutes",
            False,
            "5/24 failed; first: no '0.1'-labeled edge from "
            "'{a-2->a,b-2->b}' at position 13",
        ),
        (
            "periodic-alpha-naturality",
            False,
            "1/9 failed; first: image word's stabilized set missing from the core",
        ),
        ("component-extension", True, "11 component windows"),
        (
            "bounded-verification-note",
            True,
            "identities sampled on 24 windows of length 47 and periodic words "
            "up to period 3; the full shift is not enumerated",
        ),
    ]


def test_map_bundle_path_singletons(example_b):
    from soficovers import bundle_graph

    square = identity_square(example_b)
    bundle = bundle_graph(example_b, "full")
    find = {
        (bundle.members[i], a): members
        for (i, a, _), members in zip(bundle.graph.edges, bundle.member_edges)
    }
    sym = example_b.symbols.index
    # singleton bundle path along {a} -0-> {b} -1-> {a}
    path = [find[(frozenset({0}), sym("0"))], find[(frozenset({1}), sym("1"))]]
    mapped = map_bundle_path(square, path)
    assert [m.members for m in mapped] == path
    assert [m.source_set for m in mapped] == [frozenset({0}), frozenset({1})]


def test_map_bundle_path_empty(example_b):
    square = identity_square(example_b)
    assert map_bundle_path(square, []) == []
    assert map_bundle_path(higher_block(example_b, 2), []) == []


def criterion_7_square(name):
    """A square that verify-paper's lifting suite lifts (or, for
    "corrupted", the square its negative controls lift), with the
    ``max_period`` and ``walks`` its diagram sweep uses."""
    a, b = load_fixture("example_a"), load_fixture("example_b")
    if name == "identity":
        return identity_square(a), 3, 4
    if name == "renaming":
        renamed = LabeledGraph(b.symbols, ("x", "y"), b.edges)
        return renaming_square(b, renamed, (0, 1)), 3, 4
    if name == "higher-block":
        return higher_block(b, 2), 4, 6
    return _corrupted_higher_block_square(b, ("2", "2", "2")), 3, 3


def diagram_windows(lifted, inverse_radius, max_period, walks):
    """The core windows ``verify_lift_diagrams`` feeds the lifted code, by
    family, drawn from the same seeded generator in the same order."""
    d = lifted.block_radius
    rng = random.Random(2026)  # verify_lift_diagrams' default seed
    periodic = periodic_points(lifted.square.graph_g, max_period)
    rays = [past_set_ray(lifted.core_g, p) for p in periodic]
    sampled = sample_core_windows(lifted.core_g, 2 * d + 9, rays, rng, walks)
    component = _component_windows(lifted, rays, 2 * d + 5, rng)
    rt_length = 2 * (d + inverse_radius) + 9
    round_trip = sample_core_windows(lifted.core_g, rt_length, rays, rng, walks)
    rays_unrolled = [
        Window(0, _unroll_cycle(ray.edges, 2 * d + len(ray.edges))) for ray in rays
    ]
    return {
        "sampled": sampled,
        "component": component,
        "round-trip": round_trip,
        "periodic": rays_unrolled,
    }


def block_by_block(code, window):
    """``apply_code`` with every (2 radius + 1)-block evaluated on its own."""
    r = code.radius
    items = tuple(
        code.output_for(window.items[t : t + 2 * r + 1])
        for t in range(len(window) - 2 * r)
    )
    return Window(window.start + r, items)


def lifted_block_by_block(lifted, window, apply=apply_lifted):
    """``apply`` with every (2 radius + 1)-block applied on its own, as the
    one-block window ``Window(0, block)``."""
    r = lifted.block_radius
    items = tuple(
        apply(lifted, Window(0, window.items[t : t + 2 * r + 1])).items[0]
        for t in range(len(window) - 2 * r)
    )
    return Window(window.start + r, items)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (GraphFormatError, VerificationError, LabelPathDiedError) as exc:
        return type(exc).__name__, str(exc)


def crosses_components(lifted, window):
    comps = _window_edge_components(lifted, window)
    return None in comps or len(_runs(comps, 0)) > 1


@pytest.mark.parametrize(
    "name", ["identity", "renaming", "higher-block", "corrupted"]
)
def test_window_pass_matches_block_by_block(name):
    square, max_period, walks = criterion_7_square(name)
    by_window = lift_conjugacy(square, verify=False)
    by_block = lift_conjugacy(square, verify=False)
    back_by_window = lift_conjugacy(inverse_square(square), verify=False)
    back_by_block = lift_conjugacy(inverse_square(square), verify=False)
    families = diagram_windows(
        by_window, back_by_window.block_radius, max_period, walks
    )
    sampled = families["sampled"] + families["round-trip"]
    assert any(crosses_components(by_window, w) for w in sampled)
    mids = []
    for family, windows in families.items():
        assert windows, family
        for w in windows:
            out = outcome(apply_lifted, by_window, w)
            assert out == outcome(lifted_block_by_block, by_block, w), (family, w)
            if family == "round-trip" and isinstance(out, Window):
                mids.append(out)
    if name != "corrupted":
        assert len(mids) == len(families["round-trip"])
    for mid in mids:
        assert outcome(apply_lifted, back_by_window, mid) == outcome(
            lifted_block_by_block, back_by_block, mid
        )
    # a block alone takes the route its centre takes in the window
    for window_lift, block_lift in ((by_window, by_block), (back_by_window, back_by_block)):
        assert window_lift.segment_images == block_lift.segment_images
        assert window_lift.gap_images == block_lift.gap_images


def test_window_pass_raises_what_blocks_raise(example_b):
    lifted = lift_conjugacy(higher_block(example_b, 2), verify=False)
    reference = lift_conjugacy(higher_block(example_b, 2), verify=False)
    d = lifted.block_radius
    _, window = components_crossing_window(example_b)
    grown = grow_window(lifted, window, 2 * d + 6)
    edges = lifted.core_g.graph.edges
    cut = 2 * d + 4  # blocks 0..3 compose, blocks 4 and 5 hold the bad join
    wrong = next(
        k for k, (u, _, _) in enumerate(edges) if u != edges[grown.items[cut - 1]][2]
    )
    broken = Window(0, grown.items[:cut] + (wrong,) + grown.items[cut + 1 :])
    with pytest.raises(GraphFormatError, match="^window edges do not compose$"):
        apply_lifted(lifted, broken)
    with pytest.raises(GraphFormatError, match="^window edges do not compose$"):
        lifted_block_by_block(reference, broken)
    for t in range(4):  # the blocks before the bad join apply alone
        assert len(apply_lifted(reference, broken.segment(t, t + 2 * d))) == 1

    with pytest.raises(
        GraphFormatError, match=rf"^window of length {2 * d} is too short for radius {d}$"
    ):
        apply_lifted(lifted, grown.segment(0, 2 * d - 1))


def corrupt_edge_code(square, block):
    """``square`` with its edge rule on ``block`` (edge names) sent to the
    least edge of another label, so member paths through it disagree."""
    code = square.edge_code
    labels = [e[1] for e in square.graph_h.edges]
    key = tuple(code.input_alphabet.index(n) for n in block)
    rule = dict(code.rule)
    rule[key] = min(k for k, a in enumerate(labels) if a != labels[rule[key]])
    return replace(square, edge_code=replace(code, rule=rule))


@pytest.mark.parametrize("corrupted", ["label-rule", "edge-rule"])
def test_segment_memo_keeps_no_failure(example_b, corrupted):
    if corrupted == "label-rule":
        square = _corrupted_higher_block_square(example_b, ("2", "2", "2"))
    else:
        square = corrupt_edge_code(higher_block(example_b, 2), ("a-2->a",) * 3)
    lifted = lift_conjugacy(square, verify=False)
    first = verify_lift_diagrams(lifted, max_period=3, walks=3)
    assert not first.ok
    if corrupted == "edge-rule":  # the member-path route itself fails
        details = [c.detail for c in first.failures()]
        assert any("bundled image edges disagree" in d for d in details)
    assert lifted.segment_images
    assert verify_lift_diagrams(lifted, max_period=3, walks=3) == first
    fresh = lift_conjugacy(square, verify=False)
    assert verify_lift_diagrams(fresh, max_period=3, walks=3) == first


def test_segment_memo_is_keyed_by_the_segments_edges(example_b, monkeypatch):
    lifted = lift_conjugacy(higher_block(example_b, 2))
    first = verify_lift_diagrams(lifted, max_period=3, walks=3)
    edges = lifted.core_g.graph.edges
    assert lifted.segment_images
    for items, image in lifted.segment_images.items():
        assert all(edges[e][2] == edges[f][0] for e, f in zip(items, items[1:]))
        assert len(image) == len(items) - 2 * lifted.kappa
    calls = []
    monkeypatch.setattr(codes, "member_paths_of_window", lambda *args: calls.append(args))
    assert verify_lift_diagrams(lifted, max_period=3, walks=3) == first
    assert calls == []


def test_gap_memo_holds_what_a_fresh_fill_gives(example_b, monkeypatch):
    lifted = lift_conjugacy(higher_block(example_b, 2))
    first = verify_lift_diagrams(lifted, max_period=3, walks=3)
    assert first.ok and lifted.gap_images
    n = 7 * lifted.kappa
    fresh = relifted(lifted)
    for seg, fill in lifted.gap_images.items():
        last = len(seg) - 1
        assert _fill_between(fresh, Window(0, seg), 0, n, last - n, last).items == fill
    calls = []
    monkeypatch.setattr(codes, "_fill_between", lambda *args: calls.append(args))
    assert verify_lift_diagrams(lifted, max_period=3, walks=3) == first
    assert calls == []


def test_gap_memo_keeps_no_failure(example_b):
    square = _corrupted_higher_block_square(example_b, ("2", "2", "2"))
    lifted = lift_conjugacy(square, verify=False)
    _, window = components_crossing_window(example_b)  # criterion 8's window
    loop_both, crossing, loop_single = window.items[0], window.items[8], window.items[-1]
    d = lifted.block_radius
    crossing_window = Window(0, (loop_both,) * (d + 1) + (crossing,) + (loop_single,) * (d + 1))
    first = outcome(apply_lifted, lifted, crossing_window)
    assert first[0] in ("LabelPathDiedError", "VerificationError"), first
    assert lifted.gap_images == lifted.window_images == {}
    for start in (0, 9, -4):  # the window memo keeps no failure either
        assert outcome(apply_lifted, lifted, crossing_window.shifted(start)) == first
        assert lifted.gap_images == lifted.window_images == {}


def test_lift_rejects_malformed_square(example_a, example_b):
    square = identity_square(example_a)
    broken = replace(square, graph_h=example_b)
    with pytest.raises((GraphFormatError, VerificationError)):
        lift_conjugacy(broken)


@pytest.mark.parametrize("name", BASE_FIXTURES)
def test_sampled_core_windows_are_paths(name):
    g = load_fixture(name)
    core = stable_core(g)
    rays = [past_set_ray(core, p) for p in periodic_points(g, 4)]
    for length in (5, 8, 29):
        windows = sample_core_windows(core, length, rays, random.Random(length))
        assert len({w.items for w in windows}) == len(windows)
        for w in windows:
            assert len(w) == length
            path_window(core.graph, w.items)  # raises unless consecutive edges compose


# Edges p-q -r-> s and p -q-r-> s are both named "p-q-r->s"; the two edges
# back from s keep the graph essential.
SHARED_EDGE_NAME = graph_from_parts(
    ["r", "q-r"],
    ["p", "p-q", "s"],
    [("p-q", "r", "s"), ("p", "q-r", "s"), ("s", "r", "p"), ("s", "r", "p-q")],
)


@pytest.mark.parametrize(
    "build",
    [
        identity_square,
        lambda g: renaming_square(g, g, range(len(g.vertices))),
        lambda g: higher_block(g, 2),
    ],
    ids=["identity", "renaming", "higher-block"],
)
def test_squares_reject_shared_edge_names(build):
    with pytest.raises(GraphFormatError, match="'p-q-r->s'"):
        build(SHARED_EDGE_NAME)


# ---------------------------------------------------------------------------
# The lifted rule against the per-centre clipping route it shortcuts.
#
# ``codes._lifted_rule`` sends a centre at least kappa inside a long
# component run of the window straight to ``segment_images``.  The
# reference keeps the route it replaced: every centre clips every long
# run to its own block and maps its kappa-neighbourhood through
# ``_map_component_window`` when a clipped long run holds it.  The two
# agree whenever the block radius is at least 8 kappa + 2, which every
# lift's radius is; the windows below run both at the lift's radius and
# at 8 kappa + 2, where blocks can miss a long run on either side.


def reference_lifted_rule(lifted, window):
    radius, kappa = lifted.block_radius, lifted.kappa
    edges = lifted.core_g.graph.edges
    items = window.items
    breaks = [
        window.start + t
        for t in range(1, len(items))
        if edges[items[t - 1]][2] != edges[items[t]][0]
    ]
    runs = [
        (s, e)
        for s, e, _ in _runs(_window_edge_components(lifted, window), window.start)
        if e - s >= 8 * kappa
    ]

    def at(center):
        lo, hi = center - radius, center + radius
        b = bisect_right(breaks, lo)
        if b < len(breaks) and breaks[b] <= hi:
            raise GraphFormatError("window edges do not compose")
        long_runs = [
            (max(s, lo), min(e, hi))
            for s, e in runs
            if min(e, hi) - max(s, lo) >= 8 * kappa
        ]
        for s, e in long_runs:
            if s <= center - kappa and center + kappa <= e:
                seg = window.segment(center - kappa, center + kappa)
                return _map_component_window(lifted, seg)[center]
        rights = [run for run in long_runs if run[0] >= center - kappa]
        if not rights:
            raise VerificationError(
                "block radius failed to capture a long component run on the right"
            )
        right = rights[0]
        lefts = [run for run in long_runs if run[1] < right[0]]
        if not lefts:
            raise VerificationError(
                "block radius failed to capture a long component run on the left"
            )
        left = lefts[-1]
        i, j = left[1] - 7 * kappa - lo, left[1] - lo
        k, l = right[0] - lo, right[0] + 7 * kappa - lo
        return _fill_between(lifted, window.shifted(-lo), i, j, k, l)[center - lo]

    return at


def relifted(lifted, radius=None):
    """A copy of ``lifted`` at block radius ``radius`` (default the lift's)
    with its own empty memos: every field left out of comparisons is a
    memo, and each is made afresh from its default factory."""
    radius = lifted.block_radius if radius is None else radius
    memos = {f.name: f.default_factory() for f in fields(lifted) if not f.compare}
    return replace(lifted, block_radius=radius, **memos)


def apply_reference(lifted, window):
    """``apply_lifted`` with ``reference_lifted_rule`` in place of
    ``codes._lifted_rule``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(codes, "_lifted_rule", reference_lifted_rule)
        return apply_lifted(lifted, window)


def test_criterion_7_blocks_match_reference_route(monkeypatch):
    applied = {}

    def recording(lifted, window):
        applied.setdefault(id(lifted), (lifted, []))[1].append(window)
        return apply_lifted(lifted, window)

    with monkeypatch.context() as m:
        m.setattr(codes, "apply_lifted", recording)
        m.setattr(verification, "apply_lifted", recording)
        package = run_criterion(7).checks
    with monkeypatch.context() as m:
        m.setattr(codes, "_lifted_rule", reference_lifted_rule)
        assert run_criterion(7).checks == package
    assert all(c.ok for c in package)
    assert len(applied) == 5
    for lifted, windows in applied.values():
        alone = relifted(lifted)
        for w in dict.fromkeys(windows):
            out = outcome(apply_lifted, lifted, w)
            assert outcome(lifted_block_by_block, alone, w, apply_reference) == out


def scheduled_walk(lifted, v, length, leave_at, rng):
    """A seeded core walk from ``v`` that keeps to its component's edges
    until step ``leave_at``, then leaves at the first chance and keeps to
    the next component it enters."""
    g = lifted.core_g.graph
    comp = lift_parameters(lifted.core_g, lifted.kappa)[0].component_of
    items, left = [], False
    for i in range(length):
        outs = g.index.out[v]
        inside = [k for k in outs if comp[v] is not None and comp[g.edges[k][2]] == comp[v]]
        leaving = [k for k in outs if k not in inside]
        if inside and (left or i < leave_at or not leaving):
            pool = inside
        else:
            pool = leaving
            left = left or i >= leave_at
        k = rng.choice(pool)
        items.append(k)
        v = g.edges[k][2]
    return tuple(items)


def route_windows(lifted, seed):
    """Seeded core walks at the lift's radius, the same walks with one edge
    swapped for one that does not compose, and scheduled component
    crossings at the lift's radius; then scheduled component crossings for
    radius 8 kappa + 2."""
    g = lifted.core_g.graph
    edges = g.edges
    rng = random.Random(seed)
    d = lifted.block_radius
    walks = [
        Window(0, _walk(g, g.index.out, rng.randrange(len(g.vertices)), length, rng))
        for length in range(2 * d + 1, 2 * d + 13)
    ]
    broken = []
    for w in walks[:6]:
        for t in (1, len(w) // 2, len(w) - 1):
            wrong = [k for k, (u, _, _) in enumerate(edges) if u != edges[w.items[t - 1]][2]]
            if wrong:
                items = w.items[:t] + (rng.choice(wrong),) + w.items[t + 1 :]
                broken.append(Window(0, items))

    def crossings(r):
        return [
            Window(0, scheduled_walk(lifted, v, length, leave_at, rng))
            for length in (2 * r + 1, 2 * r + 3)
            for v in range(len(g.vertices))
            for leave_at in range(length)
        ]

    short = crossings(8 * lifted.kappa + 2)
    return walks + broken + crossings(d), short


def route_outcomes(lifted, reference, windows):
    outs = [outcome(apply_lifted, lifted, w) for w in windows]
    for w, out in zip(windows, outs):
        assert out == outcome(apply_reference, reference, w), w
    return outs


LIFTS = [(name, inverse) for name in ("identity", "renaming", "higher-block", "corrupted")
         for inverse in (False, True)]


def lift_of(name, inverse):
    square, _, _ = criterion_7_square(name)
    return lift_conjugacy(inverse_square(square) if inverse else square, verify=False)


def test_lifted_rule_matches_reference_route():
    errors = set()
    for name, inverse in LIFTS:
        lifted = lift_of(name, inverse)
        at_radius, crossings = route_windows(lifted, 2026)
        r = 8 * lifted.kappa + 2
        assert r <= lifted.block_radius
        short = relifted(lifted, r)
        outs = route_outcomes(lifted, relifted(lifted), at_radius)
        short_outs = route_outcomes(short, relifted(lifted, r), crossings)
        failed = {out for out in outs if isinstance(out, tuple)}
        errors |= {out[1] for out in short_outs if isinstance(out, tuple)}
        errors |= {message for _, message in failed}
        assert lifted.segment_images and short.segment_images, (name, inverse)
        # the crossings at the lift's own radius reach the gap route; on the
        # corrupted label rule every fill there dies
        info = lift_parameters(lifted.core_g, lifted.kappa)[0]
        assert len(info.components) >= 2
        if (name, inverse) == ("corrupted", False):
            assert not lifted.gap_images
            assert any(type_name == "LabelPathDiedError" for type_name, _ in failed)
        else:
            assert lifted.gap_images, (name, inverse)
    assert {
        "window edges do not compose",
        "block radius failed to capture a long component run on the right",
        "block radius failed to capture a long component run on the left",
    } <= errors


# ---------------------------------------------------------------------------
# The member-path image against the per-position route it replaced.
#
# ``codes.member_paths_of_window`` walks the columns of the member paths
# once, and ``codes._member_path_image`` bundles each column of their
# images itself.  The references index every path at every position, as
# the package did before, bundle the images into ``MappedBundle``s and
# look each bundle up in the target core.


def reference_member_paths(core, window):
    base = core.base
    start_members = core.members[core.graph.edges[window.items[0]][0]]
    word = [core.graph.edges[k][1] for k in window.items]
    vertex_seq = _vertex_sequence(core.graph, window)
    paths = []
    for v0 in sorted(start_members):
        path = _follow(base, v0, word)
        if len(path) < len(word):
            raise VerificationError("member path dies inside a homogeneous window")
        paths.append(path)
    for t in range(1, len(vertex_seq)):
        at_t = frozenset(base.edges[p[t - 1]][2] for p in paths)
        if at_t != core.members[vertex_seq[t]]:
            raise VerificationError(
                "member paths do not cover the window's sets; "
                "the window is not homogeneous"
            )
    return paths


@dataclass(frozen=True)
class MappedBundle:
    """Image of one bundle-path position under the edge code."""

    source_set: frozenset[int]
    symbol: int
    target_set: frozenset[int]
    members: tuple[int, ...]


def reference_map_parallel_paths(square, paths, start, trim):
    """Apply the edge code to each parallel base path and re-bundle, on
    the positions of the paths shrunk by ``trim`` (at least the code
    radius) at each end."""
    h = square.graph_h
    phi = square.edge_code
    if not paths:
        return []
    images = [apply_code(phi, Window(start, tuple(p))).items for p in paths]
    lo = start + trim
    hi = start + len(paths[0]) - 1 - trim
    bundles = []
    for t in range(lo, hi + 1):
        idx = t - (start + phi.radius)
        members = tuple(sorted({img[idx] for img in images}))
        sources = frozenset(h.edges[k][0] for k in members)
        targets = frozenset(h.edges[k][2] for k in members)
        symbols = {h.edges[k][1] for k in members}
        if len(symbols) != 1:
            raise VerificationError("bundled image edges disagree on the label")
        if len(members) != len(paths):
            raise VerificationError("image family collapsed two member paths")
        bundles.append(MappedBundle(sources, symbols.pop(), targets, members))
    return bundles


def reference_member_path_image(lifted, window):
    """Core-of-h edges of the window's member paths: every bundle is
    built, and checked, before any is looked up in the target core."""
    paths = reference_member_paths(lifted.core_g, window)
    bundles = reference_map_parallel_paths(lifted.square, paths, window.start, lifted.kappa)
    core_h = lifted.core_h
    index = core_h.member_index()
    lookup = edge_lookup(core_h.graph)
    edges = []
    for b in bundles:
        if b.source_set not in index:
            raise VerificationError("image source set is not a stable set of the target core")
        key = (index[b.source_set], b.symbol)
        if key not in lookup:
            raise VerificationError("target core misses an image edge")
        k = lookup[key]
        if core_h.members[core_h.graph.edges[k][2]] != b.target_set:
            raise VerificationError("image bundle drifts from the target core")
        edges.append(k)
    return tuple(edges)


def test_member_path_map_matches_reference_route():
    lifts = [lift_of(name, inverse) for name, inverse in LIFTS]
    square = corrupt_edge_code(higher_block(load_fixture("example_b"), 2), ("a-2->a",) * 3)
    lifts.append(lift_conjugacy(square, verify=False))
    errors = set()
    mapped = 0
    for lifted in lifts:
        core = lifted.core_g
        families = diagram_windows(lifted, lifted.block_radius, 3, 4)
        windows = families["component"] + families["sampled"]
        edges = core.graph.edges
        broken = [  # the sampled windows with one edge that does not compose
            Window(w.start, w.items[:t] + (k,) + w.items[t + 1 :])
            for w in families["sampled"][:4]
            for t in (1, len(w) // 2)
            for k, (u, _, _) in enumerate(edges)
            if u != edges[w.items[t - 1]][2]
        ]
        for w in windows + broken:
            assert outcome(member_paths_of_window, core, w) == outcome(
                reference_member_paths, core, w
            ), w
            out = outcome(_member_path_image, relifted(lifted), w)
            assert out == outcome(reference_member_path_image, lifted, w), w
            if isinstance(out[0], str):
                errors.add(out[1])
            else:
                mapped += 1
    assert mapped
    assert {
        "window edges do not compose",
        "member path dies inside a homogeneous window",
        "bundled image edges disagree on the label",
        "image family collapsed two member paths",
    } <= errors, errors


def full_set_loop_window(lifted):
    """A window on the loops 0 0 1 at the full stable set {a, b, c} of
    example_a's core: three member paths, which reach edge a-1->b first at
    position 2 (the path from a) and never at position 1."""
    core = lifted.core_g
    full = core.member_index()[frozenset({0, 1, 2})]
    lookup = edge_lookup(core.graph)
    loop0, loop1 = lookup[(full, 0)], lookup[(full, 1)]
    return Window(0, (loop0, loop0, loop1) * 4 + (loop0,))


def corrupted_target_core(lifted, part):
    """``lifted`` with one part of its target-core lookup broken."""
    core = lifted.core_h
    if part == "index":
        return replace(lifted, target_index={})
    if part == "edges":
        bare = LabeledGraph(core.graph.symbols, core.graph.vertices, ())
        return replace(lifted, core_h=replace(core, graph=bare))
    return replace(lifted, core_h=replace(core, members=(frozenset(),) * len(core.members)))


@pytest.mark.parametrize(
    "part,message",
    [
        ("index", "image source set is not a stable set of the target core"),
        ("edges", "target core misses an image edge"),
        ("members", "image bundle drifts from the target core"),
    ],
)
def test_member_path_image_lookup_errors(part, message):
    lifted = lift_conjugacy(identity_square(load_fixture("example_a")), verify=False)
    window = full_set_loop_window(lifted)
    assert len(_member_path_image(relifted(lifted), window)) == len(window) - 2
    broken = relifted(corrupted_target_core(lifted, part))
    with pytest.raises(VerificationError, match=f"^{message}$"):
        _member_path_image(broken, window)
    assert broken.segment_images == {}


def test_member_path_image_checks_labels_before_any_lookup():
    """With the edge rule corrupted on a-1->b, position 2's column disagrees
    on the label and position 1's agrees.  Without the target index the
    lookup fails at position 1 already, yet the window reports the label:
    every column's label and collapse checks run before any lookup."""
    square = corrupt_edge_code(identity_square(load_fixture("example_a")), ("a-1->b",))
    lifted = lift_conjugacy(square, verify=False)
    window = full_set_loop_window(lifted)
    prefix = window.segment(0, 2)  # the one column of position 1
    unindexed = corrupted_target_core(lifted, "index")
    assert len(_member_path_image(relifted(lifted), prefix)) == 1
    with pytest.raises(
        VerificationError, match="^image source set is not a stable set of the target core$"
    ):
        _member_path_image(relifted(unindexed), prefix)
    for lift in (lifted, unindexed):
        with pytest.raises(VerificationError, match="^bundled image edges disagree on the label$"):
            _member_path_image(relifted(lift), window)


def test_window_memo_reads_a_repeat_at_another_start(example_b, monkeypatch):
    lifted = lift_conjugacy(higher_block(example_b, 2))
    d = lifted.block_radius
    _, window = components_crossing_window(example_b)
    grown = grow_window(lifted, window, 2 * d + 6)
    first = apply_lifted(lifted, grown)
    assert lifted.window_images == {grown.items: first.items}
    fresh = apply_lifted(relifted(lifted), grown.shifted(-17))
    assert fresh == first.shifted(-17)
    calls = []
    monkeypatch.setattr(codes, "_lifted_rule", lambda *args: calls.append(args))
    assert apply_lifted(lifted, grown.shifted(-17)) == fresh
    assert calls == []
