from collections import defaultdict
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficovers import (
    EmptyShiftError,
    GraphFormatError,
    build_graph,
    check_right_resolving,
    essentialize,
    graph_from_parts,
    is_essential,
    normalize_periodic,
    path_window,
)
from soficovers.graphs import LabeledGraph, mask_image, require_essential, window_labels
from test_relations import rotation_from


def words_up_to(g, max_len):
    """All label words of paths of length 1..max_len, as symbol-index tuples.

    The graph must be essential, so these are exactly the finite words of
    the presented shift.  Each word carries its set of path ends, so the
    enumeration is polynomial in the number of distinct words.  The tests
    keep it as the reference that lists every word; the package generates
    only the Lyndon words it needs (``graphs.lyndon_words``).
    """
    require_essential(g)
    words = set()
    frontier = {(): (1 << len(g.vertices)) - 1}
    for _ in range(max_len):
        nxt = {}
        for word, ends in frontier.items():
            for a, rows in enumerate(g.index.rows):
                step = mask_image(rows, ends)
                if step:
                    nxt[word + (a,)] = step
        words.update(nxt)
        frontier = nxt
        if not frontier:
            break
    return words


def test_build_graph_round_fields(example_a):
    assert example_a.vertices == ("a", "b", "c")
    assert example_a.symbols == ("0", "1", "2", "3")
    assert len(example_a.edges) == 9


def test_build_graph_rejects_missing_keys():
    with pytest.raises(GraphFormatError):
        build_graph({"alphabet": ["0"], "vertices": ["v"]})


def test_build_graph_rejects_duplicate_vertices():
    with pytest.raises(GraphFormatError):
        graph_from_parts(("0",), ("v", "v"), (("v", "0", "v"),))


@pytest.mark.parametrize(
    "edges",
    [
        ((0, 0, 0), (0, 0, 1), (0, 0, 1), (1, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 1), (1, 0, 0)),
    ],
)
def test_labeled_graph_rejects_repeated_triples(edges):
    """Two graphs on x and y that differ only in which edge repeats.
    Compared as edge sets they look isomorphic, so neither may exist."""
    with pytest.raises(GraphFormatError, match="duplicate edge 'x' -'a'-> '[xy]'"):
        LabeledGraph(("a",), ("x", "y"), edges)


def test_build_graph_rejects_unknown_edge_refs():
    with pytest.raises(GraphFormatError) as exc:
        graph_from_parts(("0",), ("u",), (("u", "1", "u"),))
    assert "edges[0]" in str(exc.value)


def test_build_graph_rejects_string_vertex_list():
    with pytest.raises(GraphFormatError):
        build_graph({"alphabet": ["0"], "vertices": "uv", "edges": []})


@pytest.mark.parametrize("fmt", [True, 1.0, "1"])
def test_build_graph_requires_integer_format(fmt):
    with pytest.raises(GraphFormatError) as exc:
        build_graph({"format": fmt, "alphabet": ["0"], "vertices": ["v"], "edges": []})
    assert "format" in str(exc.value)


def test_build_graph_rejects_non_string_names():
    with pytest.raises(GraphFormatError) as exc:
        build_graph({"alphabet": [["x"]], "vertices": ["v"], "edges": []})
    assert "alphabet[0]" in str(exc.value)
    with pytest.raises(GraphFormatError) as exc:
        build_graph({"alphabet": ["0"], "vertices": ["v", 1], "edges": []})
    assert "vertices[1]" in str(exc.value)
    edge = {"from": "v", "label": "0", "to": 0}
    with pytest.raises(GraphFormatError) as exc:
        build_graph({"alphabet": ["0"], "vertices": ["v"], "edges": [edge]})
    assert "edges[0]" in str(exc.value) and "'to'" in str(exc.value)


UV = {"from": "u", "label": "0", "to": "v"}
VU = {"from": "v", "label": "1", "to": "u"}


def uv_graph(edges):
    return build_graph({"alphabet": ["0", "1"], "vertices": ["u", "v"], "edges": edges})


@pytest.mark.parametrize(
    "edges,message",
    [
        ([dict(UV, label=0)], "edges[0]: 'label' must be a string, got 0"),
        ([dict(UV, **{"from": True})], "edges[0]: 'from' must be a string, got True"),
        ([dict(UV, to=["v"])], "edges[0]: 'to' must be a string, got ['v']"),
        ([dict(UV, label="2")], "edges[0]: unknown symbol '2'"),
        ([dict(UV, **{"from": "x", "to": "y"})], "edges[0]: unknown vertex 'x'"),
        ([dict(UV, to="y", label="2")], "edges[0]: unknown vertex 'y'"),
        ([dict(UV, **{"from": "x", "label": 5})], "edges[0]: 'label' must be a string, got 5"),
        ([{"label": 5, "to": "v"}], "edges[0]: missing key 'from'"),
        ([{"from": "u", "to": ["v"]}], "edges[0]: missing key 'label'"),
        ([UV, VU, ("u", "0", "v")], "edges[2]: edge record must be a mapping"),
        ([UV, VU, dict(VU, to="w")], "edges[2]: unknown vertex 'w'"),
        ([UV, VU, UV, "x"], "edges[2]: duplicate edge 'u' -'0'-> 'v'"),
        ([UV, VU, UV, dict(UV, to=["v"])], "edges[2]: duplicate edge 'u' -'0'-> 'v'"),
        ([UV, VU, VU, UV], "edges[2]: duplicate edge 'v' -'1'-> 'u'"),
    ],
)
def test_build_graph_names_the_first_bad_record(edges, message):
    """Records are checked in order.  Within a record, each key's presence
    and type come first, in the order from, label, to; then the names, in
    the order from, to, label.  A repeated edge is reported at its second
    occurrence, before any later malformed record."""
    with pytest.raises(GraphFormatError) as exc:
        uv_graph(edges)
    assert str(exc.value) == message


def test_build_graph_accepts_any_mapping_record():
    g = uv_graph([MappingProxyType(UV), VU])
    assert g.edges == ((0, 0, 1), (1, 1, 0))
    with pytest.raises(GraphFormatError) as exc:
        uv_graph([VU, MappingProxyType(dict(UV, label=0))])
    assert str(exc.value) == "edges[1]: 'label' must be a string, got 0"
    with pytest.raises(GraphFormatError) as exc:
        uv_graph([defaultdict(str, label="0", to="v")])
    assert str(exc.value) == "edges[0]: missing key 'from'"


def test_essentialize_trims_sink():
    g = graph_from_parts(
        ("0",), ("u", "v"), (("u", "0", "u"), ("u", "0", "v"))
    )
    assert not is_essential(g)
    trimmed = essentialize(g)
    assert trimmed.vertices == ("u",)
    assert len(trimmed.edges) == 1


def test_essentialize_can_empty():
    g = graph_from_parts(("0",), ("u", "v"), (("u", "0", "v"),))
    with pytest.raises(EmptyShiftError):
        essentialize(g)


def test_right_resolving_conflict_witness():
    g = graph_from_parts(
        ("0",), ("u", "v"), (("u", "0", "u"), ("u", "0", "v"), ("v", "0", "u"))
    )
    report = check_right_resolving(g)
    assert not report.ok
    assert report.conflicts == ((0, 0),)


def test_right_resolving_all_fixtures(example_a, example_b, even_shift):
    for g in (example_a, example_b, even_shift):
        assert check_right_resolving(g).ok


def test_path_window_requires_composition(example_b):
    # edge 0 is a->b; an edge out of a cannot follow it
    out_of_a = [k for k, (u, _, _) in enumerate(example_b.edges) if u == 0]
    with pytest.raises(GraphFormatError):
        path_window(example_b, [0, out_of_a[0]])


def test_window_labels(example_b):
    lookup = {(u, a): k for k, (u, a, v) in enumerate(example_b.edges)}
    a, b = 0, 1
    s = example_b.symbols.index
    path = [lookup[(a, s("0"))], lookup[(b, s("1"))], lookup[(a, s("2"))]]
    w = path_window(example_b, path)
    assert w == tuple(path)
    assert window_labels(example_b, w) == (s("0"), s("1"), s("2"))


def test_even_shift_words(even_shift):
    s = even_shift.symbols.index
    words = words_up_to(even_shift, 3)
    assert (s("0"), s("0"), s("1")) in words
    assert (s("1"), s("0"), s("1")) not in words  # internal 0-run must be even


def test_normalize_periodic_primitive_rotation():
    assert normalize_periodic((1, 0)).word == (0, 1)
    assert normalize_periodic((2, 2, 2)).word == (2,)
    assert normalize_periodic((1, 0, 1, 0)).word == (0, 1)


def test_periodic_word_phases():
    p = normalize_periodic((0, 1, 2))
    assert p.at(4) == 1
    assert rotation_from(p, 1) == (1, 2, 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8), st.integers(0, 7), st.integers(1, 3))
def test_normalize_periodic_invariance(word, rot, reps):
    # the same bi-infinite point: rotations and repetitions normalize alike
    base = normalize_periodic(tuple(word))
    shifted = tuple(word[rot % len(word):] + word[: rot % len(word)]) * reps
    assert normalize_periodic(shifted) == base
