import itertools
import random
from dataclasses import dataclass

import pytest

from soficovers import (
    BASE_FIXTURES,
    EmptyShiftError,
    GraphFormatError,
    NotRightResolvingError,
    UnrealizableWordError,
    VerificationError,
    bundle_graph,
    essentialize,
    fiber_core,
    fiber_count_periodic,
    fiber_sets_on_periodic,
    graph_from_parts,
    load_fixture,
    normalize_periodic,
    stable_core,
)
from soficovers import fibers
from soficovers.graphs import bits, edge_lookup, mask_image
from soficovers.relations import mask_of, set_of
from test_closure_routes import co_stable_sets


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
    assert len(bundle.member_edges) == len(bundle.graph.edges)
    for (i, a, j), members in zip(bundle.graph.edges, bundle.member_edges):
        sources = bundle.members[i]
        # the all-emit rule: every member emits the symbol, targets collected
        targets = frozenset(example_b.edges[edges[(m, a)]][2] for m in sources)
        assert targets == bundle.members[j]
        assert frozenset(edges[(m, a)] for m in sources) == frozenset(members)


def test_bundle_seeded_closure(example_b):
    seed = frozenset({0, 1})
    bundle = bundle_graph(example_b, "seeded", [seed])
    assert seed in bundle.members
    # closed under every all-emit step
    emit = edge_lookup(example_b)
    family = {mask_of(m) for m in bundle.members}
    for members in family:
        for a in range(len(example_b.symbols)):
            if all((m, a) in emit for m in bits(members)):
                assert mask_image(example_b.index.rows[a], members) in family


@pytest.mark.parametrize("seed", [[1.0], [True], 0], ids=["float", "bool", "not-a-set"])
def test_bundle_seeded_rejects_non_index_seeds(example_b, seed):
    with pytest.raises(GraphFormatError):
        bundle_graph(example_b, "seeded", [seed])


def test_bundle_full_rejects_seed_sets(example_b):
    with pytest.raises(GraphFormatError, match="full bundle mode takes no seed sets"):
        bundle_graph(example_b, "full", [frozenset({0})])


@pytest.mark.parametrize("seeds", [None, []], ids=["none", "empty"])
def test_bundle_seeded_needs_a_seed_set(example_b, seeds):
    with pytest.raises(GraphFormatError, match="seeded bundle mode needs at least one seed set"):
        bundle_graph(example_b, "seeded", seeds)


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
    p = word_of(example_b, "2")
    fiber = fibers._fiber_masks(example_b, p)[2]
    assert fiber == [mask_of({0, 1})]
    fibers._fiber_ray(example_b, p, fiber)  # {a, b} -2-> {a, b} closes up
    # that bundle edge bundles one 2-labeled base edge out of each member
    bundle = bundle_graph(example_b, "seeded", [{0, 1}])
    both = bundle.member_index()[frozenset({0, 1})]
    members = bundle.member_edges[bundle.graph.index.edge_at[(both, p.word[0])]]
    assert [example_b.edges[k][:2] for k in members] == [(0, p.word[0]), (1, p.word[0])]


@pytest.mark.parametrize(
    "fiber,message",
    [
        ([mask_of({0, 1}), mask_of({1})], "fiber set fails the all-emit rule"),
        ([mask_of({0}), mask_of({0, 1})], "fiber sets drift from the bundle step"),
    ],
    ids=["all-emit", "drift"],
)
def test_fiber_ray_rejects_corrupted_fiber_sets(example_b, fiber, message):
    """On the word 01 the fiber sets are {a}, {b}.  b emits no 0, so {a, b}
    fails the all-emit rule; {a} steps on 0 to {b}, not to {a, b}."""
    p = word_of(example_b, "01")
    assert fibers._fiber_masks(example_b, p)[2] == [mask_of({0}), mask_of({1})]
    with pytest.raises(VerificationError, match=f"^{message}$"):
        fibers._fiber_ray(example_b, p, fiber)


def test_fiber_core_example_a(example_a):
    fcore = fiber_core(example_a)
    assert len(fcore.graph.vertices) == 7
    assert len(fcore.graph.edges) == 18
    realized = {record.members for record in fcore.seeds}
    assert realized <= set(fcore.members)


def test_fiber_core_walks_no_periodic_word(example_a, monkeypatch):
    """The seed search reads the monoid only: no periodic word's fiber
    masks are walked."""
    calls = []
    walk = fibers._fiber_masks
    monkeypatch.setattr(fibers, "_fiber_masks", lambda *a: calls.append(a) or walk(*a))
    fcore = fiber_core(example_a)
    assert len(fcore.graph.vertices) == 7
    assert calls == []


def test_fiber_core_rejects_negative_tail_bound(example_a):
    with pytest.raises(GraphFormatError, match="max_tail must be at least 0"):
        fiber_core(example_a, max_tail=-1)


def test_unrealizable_word_rejected(even_shift):
    with pytest.raises(UnrealizableWordError):
        fiber_sets_on_periodic(even_shift, word_of(even_shift, "01"))


# ---------------------------------------------------------------------------
# The maximal dominated path, a reference route no product reads.


@dataclass(frozen=True)
class DominatedPath:
    """The bundle path squeezed under a stable-core path.

    ``sets[j]`` is the source set before step j; ``stable_from`` is the
    first index from which the dominated targets match the covering
    path's target sets exactly.
    """

    start_set: frozenset[int]
    sets: tuple[frozenset[int], ...]  # length = steps + 1
    member_edges: tuple[tuple[int, ...], ...]
    stable_from: int


def maximal_dominated_path(core, path):
    """Largest bundle path running under a stable-core path with its label.

    Starts from the source-set members that admit the whole label word and
    steps by the all-emit rule; the final target set always equals the
    covering path's, and from ``stable_from`` on every target set does.
    """
    if not path:
        raise GraphFormatError("need a nonempty stable-core path")
    for i in range(len(path) - 1):
        if core.graph.edges[path[i]][2] != core.graph.edges[path[i + 1]][0]:
            raise GraphFormatError("stable-core edges do not compose")
    base = core.base
    word = tuple(core.graph.edges[k][1] for k in path)
    admits = (1 << len(base.vertices)) - 1
    for a in reversed(word):
        admits = mask_image(base.index.pred[a], admits)
    start = mask_of(core.members[core.graph.edges[path[0]][0]]) & admits
    if not start:
        raise VerificationError("no member of the source set admits the label word")
    emit = edge_lookup(base, "bundle graph")
    steps = fibers._all_emit_steps(base)
    sets = [start]
    member_edges = []
    for a in word:
        target = steps[a](sets[-1])
        if not target:
            raise VerificationError("dominated path lost the all-emit property")
        member_edges.append(tuple(emit[(v, a)] for v in bits(sets[-1])))
        sets.append(target)
    gamma_targets = [mask_of(core.members[core.graph.edges[k][2]]) for k in path]
    if sets[-1] != gamma_targets[-1]:
        raise VerificationError("dominated path misses the covering target set")
    final_size = gamma_targets[-1].bit_count()
    stable_from = len(path) - 1
    while stable_from > 0 and gamma_targets[stable_from - 1].bit_count() == final_size:
        stable_from -= 1
    for j in range(stable_from, len(path)):
        if sets[j + 1] != gamma_targets[j]:
            raise VerificationError(
                "dominated targets diverge inside the constant-size run"
            )
    return DominatedPath(
        set_of(start), tuple(map(set_of, sets)), tuple(member_edges), stable_from
    )


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


def small_essential_graphs(count, seed):
    """Seeded essential graphs on 3-6 raw vertices over two symbols, with
    one or two targets per label, so many words are unrealizable."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 6)
        triples = []
        for u in range(n):
            for a in sorted(rng.sample("ab", rng.randint(1, 2))):
                for v in sorted(rng.sample(range(n), rng.randint(1, 2))):
                    triples.append((f"v{u}", a, f"v{v}"))
        try:
            out.append(essentialize(graph_from_parts("ab", [f"v{v}" for v in range(n)], triples)))
        except EmptyShiftError:
            continue
    return out


def test_empty_past_set_means_unrealizable():
    """fiber_sets_on_periodic rejects exactly the words that
    fiber_count_periodic finds no bi-infinite path for."""
    graphs = [load_fixture(name) for name in BASE_FIXTURES] + small_essential_graphs(40, 3)
    rejected = 0
    for g in graphs:
        words = {
            normalize_periodic(w)
            for n in range(1, 5)
            for w in itertools.product(range(len(g.symbols)), repeat=n)
        }
        for p in sorted(words, key=lambda p: p.word):
            try:
                fiber_count_periodic(g, p)
                by_count = False
            except UnrealizableWordError:
                by_count = True
            try:
                fiber_sets_on_periodic(g, p)
                by_sets = False
            except UnrealizableWordError as exc:
                assert str(exc) == f"word {p.word!r} has no bi-infinite labeled path"
                by_sets = True
            assert by_sets == by_count, (g, p)
            rejected += by_sets
    assert rejected > 0
