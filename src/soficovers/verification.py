"""Named property checks behind the acceptance suite and the full report.

Every check compares a construction against an independent expectation: a
frozen expected graph or a second computation route.  Checks are grouped
into numbered criteria; the test suite prints one line per criterion and
the CLI renders the same data.

All sweeps are bounded and deterministic: periodic words up to a period
bound, random graphs and walks from fixed seeds, tail words up to a length
bound.  The bounds are part of each criterion's reported detail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    BudgetExceededError,
    EmptyShiftError,
    LabelPathDiedError,
    NotRightResolvingError,
    VerificationError,
    exit_code_for,
)
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    edge_lookup,
    essentialize,
    graph_from_parts,
    path_window,
)
from .relations import DEFAULT_MONOID_BUDGET, transition_monoid
from .analysis import (
    components_and_sources,
    follower_partition,
    graphs_isomorphic,
    periodic_points,
)
from .covers import (
    ExtendedFutureCover,
    PeriodicRay,
    _past_set_ray,
    check_regular,
    extended_future_cover,
    future_cover,
    merged_graph,
    past_set_ray,
    stable_core,
    stable_sets_from_tails,
    subset_construction,
)
from .fibers import (
    _fiber_count,
    _fiber_masks,
    _fiber_ray,
    bundle_graph,
    fiber_core,
    fiber_count_periodic,
)
from .codes import (
    CheckOutcome,
    ConjugacySquare,
    LiftedCode,
    SquareReport,
    _verify_lift_diagrams,
    apply_lifted,
    fill_gap,
    higher_block,
    identity_square,
    inverse_square,
    lift_conjugacy,
    renaming_square,
    sample_core_windows,
    verify_lift_diagrams,
    verify_square,
)
from .fixtures import BASE_FIXTURES, EXPECTED_GRAPHS, load_fixture


@dataclass(frozen=True)
class VerifyBounds:
    """Enumeration bounds for the bounded checks; defaults are desk scale."""

    max_period: int = 6
    tail_bound: int = 8
    random_graphs: int = 25
    random_seed: int = 20260814
    monoid_budget: int = DEFAULT_MONOID_BUDGET


@dataclass(frozen=True)
class CriterionResult(SquareReport):
    """Outcome of one numbered acceptance criterion: its checks, with the
    criterion's number and title."""

    number: int
    title: str


def _counts(g: LabeledGraph) -> str:
    return f"{len(g.vertices)} vertices / {len(g.edges)} edges"


def _verdict(
    name: str, bad: Sequence[str], detail: str, shown: Optional[int] = None
) -> CheckOutcome:
    """Pass with ``detail`` when nothing is bad; otherwise fail, listing the
    first ``shown`` bad items (every one when ``shown`` is None)."""
    return CheckOutcome(name, not bad, ", ".join(bad[:shown]) if bad else detail)


def _iso_expected(
    name: str,
    got: LabeledGraph,
    fixture: str,
    role: str,
    want: tuple[int, int],
) -> CheckOutcome:
    expected = load_fixture(EXPECTED_GRAPHS[fixture][role])
    res = graphs_isomorphic(got, expected)
    counts_ok = (len(got.vertices), len(got.edges)) == want
    return CheckOutcome(
        name,
        res.isomorphic and counts_ok,
        _counts(got) + ("" if res.isomorphic else "; differs from the expected graph"),
    )


# ---------------------------------------------------------------------------
# criterion 1: the first worked example, end to end


def _criterion_example_a(bounds: VerifyBounds) -> list[CheckOutcome]:
    g = load_fixture("example_a")
    checks = []
    sub = subset_construction(g, "full")
    checks.append(
        _iso_expected("subset-cover", sub.graph, "example_a", "subset_full", (7, 24))
    )
    core = stable_core(g, bounds.monoid_budget)
    checks.append(
        _iso_expected("stable-core", core.graph, "example_a", "stable_core", (6, 21))
    )
    ab = frozenset({g.vertex_index("a"), g.vertex_index("b")})
    checks.append(
        CheckOutcome(
            "stable-core-omits-ab",
            ab not in set(core.members),
            "the two-vertex set {a,b} is not a stabilized endpoint set",
        )
    )
    parts = follower_partition(core.graph)
    checks.append(
        CheckOutcome(
            "follower-partition-discrete",
            all(len(cls) == 1 for cls in parts),
            f"{len(parts)} follower classes for {len(core.graph.vertices)} vertices",
        )
    )
    fc = future_cover(g, bounds.monoid_budget)
    checks.append(
        CheckOutcome(
            "future-cover-equals-core",
            graphs_isomorphic(fc.cover, core.graph).isomorphic,
            "merging the stable core changes nothing here",
        )
    )
    fcore = fiber_core(g, bounds.tail_bound, bounds.monoid_budget)
    checks.append(
        _iso_expected("fiber-core", fcore.graph, "example_a", "fiber_core", (7, 18))
    )
    return checks


# ---------------------------------------------------------------------------
# criterion 2: the second worked example, end to end


def _criterion_example_b(bounds: VerifyBounds) -> list[CheckOutcome]:
    g = load_fixture("example_b")
    checks = []
    fc = future_cover(g, bounds.monoid_budget)
    checks.append(
        CheckOutcome(
            "future-cover-reproduces-base",
            graphs_isomorphic(fc.cover, g).isomorphic,
            _counts(fc.cover),
        )
    )
    checks.append(
        _iso_expected(
            "stable-core", fc.core.graph, "example_b", "stable_core", (3, 8)
        )
    )
    classes = {
        frozenset(fc.core.graph.vertices[v] for v in cls)
        for cls in fc.bundle.classes
    }
    want = {frozenset({"{a}", "{a,b}"}), frozenset({"{b}"})}
    checks.append(
        CheckOutcome(
            "follower-classes",
            classes == want,
            "classes {{a},{a,b}} and {{b}}",
        )
    )
    ext = extended_future_cover(g, bounds.monoid_budget)
    checks.append(
        _iso_expected(
            "extended-cover", ext.graph, "example_b", "extended_core", (3, 8)
        )
    )
    checks.append(
        CheckOutcome(
            "extended-merge-reproduces-base",
            graphs_isomorphic(merged_graph(ext.graph).cover, g).isomorphic,
            "merging the extended cover recovers the original presentation",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# criterion 3: two independent routes to the stable family


def random_right_resolving_graphs(
    count: int, seed: int, max_vertices: int = 6
) -> list[LabeledGraph]:
    """Deterministic essential right-resolving test graphs on at most 4
    symbols.

    Each vertex gets a random nonempty set of out-labels with one target
    per label, so the graph is right-resolving by construction; drafts
    that trim to nothing or whose transition monoid exceeds 4000 elements
    are skipped (the retry sequence is part of the seeded stream).
    """
    rng = random.Random(seed)
    out: list[LabeledGraph] = []
    while len(out) < count:
        n = rng.randint(1, max_vertices)
        s = rng.randint(1, 4)
        triples = []
        for v in range(n):
            for a in sorted(rng.sample(range(s), rng.randint(1, s))):
                triples.append((f"v{v}", str(a), f"v{rng.randrange(n)}"))
        g = graph_from_parts(
            [str(a) for a in range(s)], [f"v{v}" for v in range(n)], triples
        )
        try:
            g = essentialize(g)
            transition_monoid(g, 4000)
        except (EmptyShiftError, BudgetExceededError):
            continue
        out.append(g)
    return out


def _criterion_oracle(bounds: VerifyBounds) -> list[CheckOutcome]:
    named = [
        (name, load_fixture(name)) for name in ("example_a", "example_b", "even_shift")
    ]
    randoms = [
        (f"random-{i}", g)
        for i, g in enumerate(
            random_right_resolving_graphs(bounds.random_graphs, bounds.random_seed)
        )
    ]
    bad: list[str] = []
    for name, g in named + randoms:
        core = stable_core(g, bounds.monoid_budget)
        oracle = stable_sets_from_tails(g, 2 * len(core.monoid))
        if set(oracle) != set(core.members):
            bad.append(name)
    detail = (
        f"{len(named)} bundled graphs and {len(randoms)} seeded random graphs"
        if not bad
        else "family mismatch on: " + ", ".join(bad)
    )
    return [CheckOutcome("stable-family-matches-tail-oracle", not bad, detail)]


# ---------------------------------------------------------------------------
# criterion 4: regularity of the constructed covers


def _criterion_regularity(bounds: VerifyBounds) -> list[CheckOutcome]:
    checks = []
    bad_cores: list[str] = []
    bad_covers: list[str] = []
    for name in BASE_FIXTURES:
        g = load_fixture(name)
        fc = future_cover(g, bounds.monoid_budget)
        if not check_regular(fc.core.graph, bounds.monoid_budget).ok:
            bad_cores.append(name)
        if not check_regular(fc.cover, bounds.monoid_budget).ok:
            bad_covers.append(name)
    fixtures = f"{len(BASE_FIXTURES)} fixtures"
    checks.append(_verdict("stable-cores-regular", bad_cores, fixtures))
    checks.append(_verdict("future-covers-regular", bad_covers, fixtures))
    g = load_fixture("two_loops_vs_one")
    rep = check_regular(g, bounds.monoid_budget)
    q = g.vertex_index("q")
    checks.append(
        CheckOutcome(
            "irregular-counterexample",
            (not rep.ok) and rep.failing_vertices() == [q],
            "only the vertex whose follower set no left ray realizes fails",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# criterion 5: periodic-point identities


def _alpha_edges_in_cover(
    ext: ExtendedFutureCover, ray: PeriodicRay
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two routes to the canonical presentation of ``ray.word`` in the
    future cover.

    Route one factors ``ray``, the stable-core ray, through the merge.
    Route two computes the ray inside the cover's own stable core and
    carries it back to the cover along the extended cover's factor map.
    """
    fc = ext.future
    p = ray.word
    factored = tuple(fc.bundle.factor_edge[e] for e in ray.edges)
    ray2 = past_set_ray(ext.core, p)
    lookup = edge_lookup(fc.cover)
    direct = []
    for k in range(p.period):
        v = ext.factor_vertex[ray2.vertices[k]]
        e = lookup.get((v, p.at(k)))
        if e is None:
            raise VerificationError("cover misses an edge of the canonical ray")
        direct.append(e)
    return factored, tuple(direct)


def _criterion_periodic(bounds: VerifyBounds) -> list[CheckOutcome]:
    checks = []
    beta_bad: list[str] = []
    natural_bad: list[str] = []
    comp_bad: list[str] = []
    count_bad: list[str] = []
    words = 0
    source_words = 0
    for name in BASE_FIXTURES:
        g = load_fixture(name)
        ext = extended_future_cover(g, bounds.monoid_budget)
        core = ext.future.core
        info = components_and_sources(core.graph)
        fcore = fiber_core(g, bounds.tail_bound, bounds.monoid_budget)
        fiber_index = fcore.member_index()
        fiber_edges, fiber_edge_at = fcore.graph.edges, fcore.graph.index.edge_at
        for k, (u, a, v) in enumerate(core.graph.edges):
            cu = info.component_of[u]
            if cu is None or cu != info.component_of[v]:
                continue
            su = fiber_index.get(core.members[u])
            e = None if su is None else fiber_edge_at.get((su, a))
            if e is None or fcore.members[fiber_edges[e][2]] != core.members[v]:
                comp_bad.append(f"{name}:{core.graph.edge_name(k)}")
        for p in periodic_points(g, bounds.max_period):
            words += 1
            past, _, fiber = _fiber_masks(g, p)  # one walk serves every check below
            if fiber != past:
                beta_bad.append(f"{name}:{p.word}")
            _fiber_ray(g, p, fiber)  # asserts the all-emit bundle closes up
            ray = _past_set_ray(core, p, past)
            factored, direct = _alpha_edges_in_cover(ext, ray)
            if factored != direct:
                natural_bad.append(f"{name}:{p.word}")
            comps = {info.component_of[v] for v in ray.vertices}
            c = comps.pop()
            if comps or c is None:
                count_bad.append(f"{name}:{p.word} ray leaves its component")
            elif info.is_source[c]:
                source_words += 1
                # the fiber count is the component's common member-set size
                sizes = {len(core.members[v]) for v in info.components[c]}
                if sizes != {_fiber_count(g, p, fiber)}:
                    count_bad.append(f"{name}:{p.word}")
    up_to = f"{words} periodic words up to period {bounds.max_period}"
    checks.append(_verdict("fiber-sets-equal-past-sets", beta_bad, up_to, 3))
    routes = f"two routes per word, {words} words"
    checks.append(_verdict("merge-respects-canonical-rays", natural_bad, routes, 3))
    in_core = "every in-component stable-core edge appears as a bundle edge"
    checks.append(_verdict("component-edges-in-fiber-core", comp_bad, in_core, 3))
    in_sources = f"{source_words} words with rays in source components"
    checks.append(_verdict("source-component-fiber-counts", count_bad, in_sources, 3))
    a = load_fixture("example_a")
    b = load_fixture("example_b")
    named_counts = [
        ("example_a", a, PeriodicWord((a.symbol_index("0"),)), 3),
        ("example_a", a, PeriodicWord((a.symbol_index("2"),)), 1),
        ("example_b", b, PeriodicWord((b.symbol_index("2"),)), 2),
    ]
    bad = [
        f"{name}:{p.word}"
        for name, g, p, want in named_counts
        if fiber_count_periodic(g, p) != want
    ]
    checks.append(_verdict("named-fiber-counts", bad, "constant words hit counts 3, 1 and 2"))
    return checks


# ---------------------------------------------------------------------------
# criterion 6: merging a merged cover changes nothing


def _criterion_idempotence(bounds: VerifyBounds) -> list[CheckOutcome]:
    bad: list[str] = []
    for name in BASE_FIXTURES:
        g = load_fixture(name)
        fc = future_cover(g, bounds.monoid_budget)
        again = future_cover(fc.cover, bounds.monoid_budget)
        if not graphs_isomorphic(again.cover, fc.cover).isomorphic:
            bad.append(name)
    return [_verdict("future-cover-idempotent", bad, f"{len(BASE_FIXTURES)} fixtures")]


# ---------------------------------------------------------------------------
# criterion 7: the lifting suite


def _prefixed(prefix: str, report: SquareReport) -> list[CheckOutcome]:
    return [
        CheckOutcome(f"{prefix}-{c.name}", c.ok, c.detail) for c in report.checks
    ]


def _lifted_square_checks(
    prefix: str,
    square: ConjugacySquare,
    inverse: Optional[ConjugacySquare],
    edge_map: Callable[[LiftedCode], Mapping[int, int]],
    window_check: tuple[str, str],
    bounds: VerifyBounds,
    rng: random.Random,
) -> list[CheckOutcome]:
    """Lift ``square`` and check its diagrams against the lift of
    ``inverse`` (against itself when None); then the lifted code must send
    each edge of core windows sampled with ``rng`` to its image under
    ``edge_map(lifted)``.  ``window_check`` names that check and ends its
    detail."""
    budget = bounds.monoid_budget
    lifted = lift_conjugacy(square, budget=budget)
    back = lifted if inverse is None else lift_conjugacy(inverse, budget=budget)
    rays = [past_set_ray(lifted.core_g, p) for p in periodic_points(square.graph_g, 3)]
    report = _verify_lift_diagrams(lifted, back, 3, 4, rays)
    want = edge_map(lifted)
    D = lifted.block_radius
    wins = sample_core_windows(lifted.core_g, 2 * D + 9, rays, rng, walks=4)
    agree = all(
        apply_lifted(lifted, w) == tuple(want[k] for k in w[D : len(w) - D])
        for w in wins
    )
    failed = "; ".join(c.name for c in report.failures())
    name, detail = window_check
    return [
        CheckOutcome(f"{prefix}-diagrams", report.ok, failed or "all diagram checks pass"),
        CheckOutcome(f"{prefix}-{name}", agree, f"{len(wins)} sampled windows {detail}"),
    ]


def _criterion_lifting(bounds: VerifyBounds) -> list[CheckOutcome]:
    rng = random.Random(bounds.random_seed)
    checks = _lifted_square_checks(
        "identity-square",
        identity_square(load_fixture("example_a")),
        None,
        lambda lifted: {k: k for k in range(len(lifted.core_g.graph.edges))},
        ("acts-identically", "reproduce themselves"),
        bounds,
        rng,
    )

    def renamed_edges(lifted: LiftedCode) -> dict[int, int]:
        # The renaming is the identity on vertex indices, hence on member sets.
        h_index = lifted.core_h.member_index()
        lookup = edge_lookup(lifted.core_h.graph)
        core_g = lifted.core_g
        return {
            k: lookup[(h_index[core_g.members[u]], s)]
            for k, (u, s, _) in enumerate(core_g.graph.edges)
        }

    b = load_fixture("example_b")
    square = renaming_square(b, LabeledGraph(b.symbols, ("x", "y"), b.edges), (0, 1))
    checks += _lifted_square_checks(
        "renaming-square",
        square,
        inverse_square(square),
        renamed_edges,
        ("matches-subset-isomorphism", "follow the renamed member sets"),
        bounds,
        rng,
    )
    hb = higher_block(b, 2)
    lifted = lift_conjugacy(hb, budget=bounds.monoid_budget)
    inverse = lift_conjugacy(inverse_square(hb), budget=bounds.monoid_budget)
    report = verify_lift_diagrams(lifted, inverse_lifted=inverse, max_period=4)
    checks.extend(_prefixed("higher-block", report))
    return checks


# ---------------------------------------------------------------------------
# criterion 8: negative controls


def _corrupted_higher_block_square(g: LabeledGraph, block: tuple[str, ...]):
    """The 2-block recoding square of g with the label rule on ``block``
    (symbol names) sent to the least other symbol."""
    square = higher_block(g, 2)
    code = square.label_code
    key = tuple(g.symbol_index(s) for s in block)
    rule = dict(code.rule)
    wrong = min(s for k, s in enumerate(code.output_alphabet) if k != rule[key])
    rule[key] = code.output_alphabet.index(wrong)
    return replace(square, label_code=replace(code, rule=rule))


def _criterion_negative(bounds: VerifyBounds) -> list[CheckOutcome]:
    checks = []
    b = load_fixture("example_b")
    bad_square = _corrupted_higher_block_square(b, ("2", "2", "2"))
    report = verify_square(bad_square)
    checks.append(
        CheckOutcome(
            "corrupted-label-rule-fails-square-check",
            not report.ok,
            "first failure: "
            + (report.failures()[0].name if report.failures() else "none"),
        )
    )

    lifted_bad = lift_conjugacy(bad_square, verify=False, budget=bounds.monoid_budget)
    core = lifted_bad.core_g
    lookup = edge_lookup(core.graph)
    idx = core.member_index()
    both = idx[frozenset({0, 1})]
    single = idx[frozenset({0})]
    sym = {s: i for i, s in enumerate(core.graph.symbols)}
    loop_both = lookup[(both, sym["2"])]
    crossing = lookup[(both, sym["1"])]
    loop_single = lookup[(single, sym["1"])]
    window = path_window(
        core.graph, [loop_both] * 8 + [crossing] + [loop_single] * 8
    )
    outcome: Optional[str] = None
    try:
        fill_gap(lifted_bad, window, (0, 7), (9, 16))
    except (LabelPathDiedError, VerificationError) as exc:
        outcome = type(exc).__name__
    checks.append(
        CheckOutcome(
            "corrupted-label-rule-breaks-gap-filling",
            outcome is not None,
            f"raised {outcome}" if outcome else "gap filling unexpectedly succeeded",
        )
    )
    good = lift_conjugacy(higher_block(b, 2), budget=bounds.monoid_budget)
    filled = fill_gap(good, window, (0, 7), (9, 16))
    checks.append(
        CheckOutcome(
            "intact-square-fills-the-same-gap",
            len(filled) == len(window) - 2 * good.kappa,
            f"{len(filled)} edges filled",
        )
    )

    nr = graph_from_parts(
        ["0"], ["v", "w"], [("v", "0", "v"), ("v", "0", "w"), ("w", "0", "v")]
    )
    outcomes = []
    for op_name, op in (
        ("merged_graph", lambda: merged_graph(nr)),
        ("bundle_graph", lambda: bundle_graph(nr)),
        ("fiber_core", lambda: fiber_core(nr)),
    ):
        try:
            op()
            outcomes.append(f"{op_name}: accepted")
        except NotRightResolvingError as exc:
            code = exit_code_for(exc)
            if code != 2:
                outcomes.append(f"{op_name}: exit code {code}")
    checks.append(
        CheckOutcome(
            "non-right-resolving-rejected",
            not outcomes,
            "merge and bundle operations raise the exit-2 error"
            if not outcomes
            else "; ".join(outcomes),
        )
    )
    return checks


# ---------------------------------------------------------------------------
# the numbered suite


CRITERIA: tuple[tuple[int, str, Callable[[VerifyBounds], list[CheckOutcome]]], ...] = (
    (1, "example-a-pipeline", _criterion_example_a),
    (2, "example-b-pipeline", _criterion_example_b),
    (3, "stable-family-oracle", _criterion_oracle),
    (4, "regularity", _criterion_regularity),
    (5, "periodic-identities", _criterion_periodic),
    (6, "idempotence", _criterion_idempotence),
    (7, "lifting-suite", _criterion_lifting),
    (8, "negative-controls", _criterion_negative),
)


def run_criterion(number: int, bounds: Optional[VerifyBounds] = None) -> CriterionResult:
    bounds = bounds or VerifyBounds()
    for num, title, fn in CRITERIA:
        if num == number:
            return CriterionResult(tuple(fn(bounds)), num, title)
    raise KeyError(f"no criterion numbered {number}")


def run_acceptance(bounds: Optional[VerifyBounds] = None) -> list[CriterionResult]:
    bounds = bounds or VerifyBounds()
    return [
        CriterionResult(tuple(fn(bounds)), num, title) for num, title, fn in CRITERIA
    ]


def headline_counts(bounds: Optional[VerifyBounds] = None) -> list[str]:
    """The four headline construction sizes of the bundled examples."""
    bounds = bounds or VerifyBounds()
    a = load_fixture("example_a")
    b = load_fixture("example_b")
    sub = subset_construction(a, "full")
    core = stable_core(a, bounds.monoid_budget)
    fcore = fiber_core(a, bounds.tail_bound, bounds.monoid_budget)
    ext = extended_future_cover(b, bounds.monoid_budget)
    return [
        f"subset(Example-A): {_counts(sub.graph)}",
        f"past-cover(Example-A): {len(core.graph.vertices)} / {len(core.graph.edges)}",
        f"gprime(Example-A): {len(fcore.graph.vertices)} / {len(fcore.graph.edges)}",
        f"extended(Example-B): {len(ext.graph.vertices)} / {len(ext.graph.edges)}",
    ]
