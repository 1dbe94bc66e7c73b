from soficovers import (
    BASE_FIXTURES,
    check_source_component_injectivity,
    check_tail_asymptotics,
    headline_counts,
    load_fixture,
    stable_core,
)
from soficovers import codes, fibers, verification
from soficovers.analysis import components_and_sources, periodic_points
from soficovers.verification import (
    CRITERIA,
    VerifyBounds,
    random_right_resolving_graphs,
    run_criterion,
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
            seen[name].append((id(owner), getattr(arg, "items", arg)))
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
    info = components_and_sources(core.graph, core.members)
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
