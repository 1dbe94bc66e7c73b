import itertools
from typing import Optional, Sequence

from soficovers import (
    BASE_FIXTURES,
    CheckOutcome,
    LabeledGraph,
    headline_counts,
    load_fixture,
    stable_core,
)
from soficovers import codes, fibers, verification
from soficovers.analysis import components_and_sources, periodic_points
from soficovers.graphs import trim
from soficovers.relations import stabilized_range
from soficovers.verification import (
    CRITERIA,
    VerifyBounds,
    random_right_resolving_graphs,
    run_criterion,
)
from test_relations import (
    is_empty,
    omega_power,
    rotation_from,
    stabilized_domain,
    word_relation,
)


def test_criteria_registry():
    assert [n for n, _, _ in CRITERIA] == list(range(1, 9))
    titles = [t for _, t, _ in CRITERIA]
    assert titles[0] == "example-a-pipeline"
    assert titles[-1] == "negative-controls"


def test_headline_lines_verbatim():
    assert headline_counts() == [
        "subset(Example-A): 7 vertices / 24 edges",
        "past-cover(Example-A): 6 / 21",
        "gprime(Example-A): 7 / 18",
        "extended(Example-B): 3 / 8",
    ]


def test_criterion_5_walks_each_word_once(monkeypatch):
    """Criterion 5 walks each (fixture, word) once: its fiber sets, the
    bundle ray's closing check and the stable-core ray read that one walk.
    The three named fiber counts walk on freshly loaded fixtures."""
    walks = []
    walk = fibers._fiber_masks

    def spy(base, p):
        walks.append((base, p))
        return walk(base, p)

    for module in (fibers, verification):
        monkeypatch.setattr(module, "_fiber_masks", spy)
    assert run_criterion(5).ok
    max_period = VerifyBounds().max_period
    words = sum(len(periodic_points(load_fixture(n), max_period)) for n in BASE_FIXTURES)
    assert len(walks) == words + 3 == 314
    assert len({(id(base), p) for base, p in walks}) == len(walks)


def test_criterion_5_fails_a_count_off_its_components_member_size(monkeypatch):
    """Each word with a ray in a source component must have the
    component's common member-set size as its fiber count; a count that
    is off fails that check and no other."""
    monkeypatch.setattr(verification, "_fiber_count", lambda base, p, fiber: fibers.INFINITE)
    report = run_criterion(5)
    assert [c.name for c in report.failures()] == ["source-component-fiber-counts"]


def test_criterion_7_prepares_each_window_once(monkeypatch):
    """Criterion 7 prepares each distinct window of a lift once (the
    repeats read ``LiftedCode.window_images``) and builds each periodic
    ray once, handing it to the diagram sweep and to its own sampler.  The
    member-path route of ``check_component`` is not folded into the
    lifted rule, so it still maps its segments itself."""
    seen = {"_lifted_rule": [], "past_set_ray": [], "member_paths_of_window": []}

    def spy(name):
        real = getattr(codes, name)

        def call(owner, arg):
            seen[name].append((id(owner), arg))
            return real(owner, arg)

        return call

    for name in seen:
        call = spy(name)
        for module in (codes, verification):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, call)
    assert run_criterion(7).ok
    assert {name: len(calls) for name, calls in seen.items()} == {
        "_lifted_rule": 413,
        "past_set_ray": 41,
        "member_paths_of_window": 342,
    }
    for name in ("_lifted_rule", "past_set_ray"):
        assert len(set(seen[name])) == len(seen[name]), name


def test_random_graphs_deterministic():
    first = random_right_resolving_graphs(5, seed=7)
    second = random_right_resolving_graphs(5, seed=7)
    assert [g.edges for g in first] == [g.edges for g in second]
    assert [g.edges for g in random_right_resolving_graphs(5, seed=8)] != [
        g.edges for g in first
    ]


def test_random_graphs_well_formed():
    from soficovers import check_right_resolving, is_essential

    for g in random_right_resolving_graphs(8, seed=3):
        assert is_essential(g)
        assert check_right_resolving(g).ok
        assert len(g.vertices) <= 6
        assert len(g.symbols) <= 4


# ---------------------------------------------------------------------------
# Bounded properties that no criterion runs, kept as reference routes: the
# tail configurations by word-relation fixpoints and source-component
# injectivity by synchronized products.


def check_tail_asymptotics(g: LabeledGraph) -> CheckOutcome:
    """Forward agreement of fiber sets with past sets on tailed points.

    For configurations that read some word of length at most 2 after
    infinitely many copies of a periodic word of period at most 4 and
    then repeat the periodic word forever, the fiber source sets must
    equal the stabilized past sets from some index on; at most 40
    configurations are checked.  The horizon covers every subset the
    image iteration can visit on up to 8 vertices, and is capped there.
    """
    configs = 0
    bad: list[str] = []
    n = len(g.vertices)
    connectors = [
        w
        for length in range(3)
        for w in itertools.product(range(len(g.symbols)), repeat=length)
    ]
    for p in periodic_points(g, 4):
        tail = omega_power(word_relation(g, p.word))
        for v_word in connectors:
            if configs >= 40:
                break
            middle = word_relation(g, v_word) if v_word else None
            rel = tail if middle is None else tail.compose(middle).compose(tail)
            if is_empty(rel):
                continue
            configs += 1
            T = p.period
            past = stabilized_range(tail)
            if middle is not None:
                past = middle.image(past)
            horizon = T * (2 ** min(n, 8) + 2)
            step = [word_relation(g, (p.at(k),)) for k in range(T)]
            forwards = [
                stabilized_domain(word_relation(g, rotation_from(p, k)))
                for k in range(T)
            ]
            equal_from: Optional[int] = None
            current = past
            for t in range(horizon):
                fiber = current & forwards[t % T]
                if not fiber:
                    bad.append(f"{p.word}+{v_word}: empty fiber set")
                    break
                if fiber == current:
                    if equal_from is None:
                        equal_from = t
                elif equal_from is not None:
                    bad.append(f"{p.word}+{v_word}: equality not final from {equal_from}")
                    break
                current = step[t % T].image(current)
            else:
                if equal_from is None:
                    bad.append(f"{p.word}+{v_word}: no agreement index")
    return CheckOutcome(
        "tail-configurations-stabilize",
        not bad,
        f"{configs} tailed configurations" if not bad else "; ".join(bad[:3]),
    )


def _synchronized_pairs(
    g: LabeledGraph, left: Sequence[int], right: Sequence[int]
) -> set[tuple[int, int]]:
    """Bi-essential label-synchronized vertex pairs between two vertex sets,
    using only edges internal to each set."""
    left_set, right_set = set(left), set(right)
    arcs = [
        ((u1, u2), (v1, v2))
        for u1, a1, v1 in g.edges
        if u1 in left_set and v1 in left_set
        for u2, a2, v2 in g.edges
        if u2 in right_set and v2 in right_set and a1 == a2
    ]
    return trim({x for arc in arcs for x in arc}, arcs)


def check_source_component_injectivity(core) -> CheckOutcome:
    """The label map is injective on each source component, and distinct
    source components present disjoint sets of bi-infinite words.

    Decided exactly through synchronized products: a surviving off-diagonal
    pair inside one component is a label collision; a surviving pair across
    two components is a shared word.
    """
    info = components_and_sources(core.graph)
    sources = [
        comp
        for comp, is_src in zip(info.components, info.is_source)
        if is_src
    ]
    bad: list[str] = []
    for comp in sources:
        pairs = _synchronized_pairs(core.graph, comp, comp)
        if any(u != v for u, v in pairs):
            bad.append("label collision inside a source component")
    for i, comp_a in enumerate(sources):
        for comp_b in sources[i + 1 :]:
            if _synchronized_pairs(core.graph, comp_a, comp_b):
                bad.append("two source components share a word")
    return CheckOutcome(
        "source-components-label-injective",
        not bad,
        f"{len(sources)} source components" if not bad else "; ".join(sorted(set(bad))),
    )


def test_tail_asymptotics_fixtures():
    for name in ("example_a", "example_b", "even_shift"):
        outcome = check_tail_asymptotics(load_fixture(name))
        assert outcome.ok, (name, outcome.detail)
        assert "tailed configurations" in outcome.detail


def test_source_injectivity_fixtures():
    for name in BASE_FIXTURES:
        core = stable_core(load_fixture(name))
        outcome = check_source_component_injectivity(core)
        assert outcome.ok, (name, outcome.detail)


def test_source_injectivity_beats_finite_window_probe():
    # chain_stabilization admits distinct equal-labeled finite paths inside
    # its single source component, so a finite-window probe would flag a
    # collision; the synchronized-product check certifies injectivity on
    # bi-infinite points.
    g = load_fixture("chain_stabilization")
    core = stable_core(g)
    info = components_and_sources(core.graph)
    sources = [
        c for c in range(len(info.components)) if info.is_source[c]
    ]
    assert len(sources) == 1
    component = set(info.components[sources[0]])
    by_label = {}
    for u, a, v in core.graph.edges:
        if u in component and v in component:
            by_label.setdefault(a, []).append((u, v))
    collisions = [
        symbol for symbol, edges in by_label.items() if len(edges) > 1
    ]
    assert collisions  # equal-labeled distinct edges exist in the component
    assert check_source_component_injectivity(core).ok
