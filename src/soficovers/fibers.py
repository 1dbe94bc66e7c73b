"""Fiber structure of a right-resolving presentation.

The bundle graph refines the subset construction: a set F steps along a
symbol only when every member emits it, and ``member_edges[k]`` lists the
base edges that edge k of the graph bundles.  Bi-infinite bundle paths
are families of base paths sharing one label sequence; the source sets
of the paths in one label fiber are cut out by intersecting the
stabilized past sets with their forward duals.

Fibers of periodic words are counted on those fiber sets: a fiber
vertex with two predecessors in the fiber set before it means the fiber
is uncountable, and otherwise each phase-zero fiber vertex carries one
fiber point.

The fiber core is the forward closure of the fiber sets of doubly-tailed
points, so every vertex is reached from a seed by defined steps; a
periodic point is one with no middle word, so it needs no search of its
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import GraphFormatError, VerificationError
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    bits,
    edge_lookup,
    mask_image,
    require_essential,
    require_right_resolving,
)
from .analysis import forward_masks, require_realizable
from .covers import (
    Step,
    SubsetFamily,
    all_subsets,
    assemble_subset_graph,
    closure_words,
    subset_steps,
)
from .relations import DEFAULT_MONOID_BUDGET, mask_of, set_of, transition_monoid

INFINITE = "infinite"


@dataclass(frozen=True)
class BundleGraph(SubsetFamily):
    """Subset graph under the every-member-emits rule.

    ``member_edges[k]`` holds the base edges that ``graph.edges[k]``
    bundles: one out of each member of its source set, in increasing
    vertex order, all with its label; their targets fill its target set.
    """

    member_edges: tuple[tuple[int, ...], ...]
    mode: str


def _all_emit_steps(base: LabeledGraph) -> list[Step]:
    """The subset step along each symbol, defined only on sets whose every
    member emits the symbol."""

    def all_emit(rows: tuple[int, ...]) -> Step:
        emitters = mask_of(u for u, row in enumerate(rows) if row)
        return lambda mask: mask_image(rows, mask) if mask & emitters == mask else 0

    return [all_emit(rows) for rows in base.index.rows]


def _assemble_bundle(
    base: LabeledGraph, family: Iterable[int]
) -> tuple[LabeledGraph, list[int], tuple[tuple[int, ...], ...]]:
    """The subset-graph assembly under the all-emit steps, plus the member
    edges of each of its edges in increasing vertex order."""
    emit = edge_lookup(base, "bundle graph")
    graph, masks = assemble_subset_graph(base, family, _all_emit_steps(base))
    member_edges = tuple(
        tuple(emit[(v, a)] for v in bits(masks[i])) for i, a, _ in graph.edges
    )
    return graph, masks, member_edges


def _seed_mask(seed: object, n: int) -> int:
    """Mask of one seed set; members must be vertex indices, and a bool is
    not one."""
    members = list(seed) if isinstance(seed, Iterable) else []
    if not members or any(type(v) is not int or not 0 <= v < n for v in members):
        raise GraphFormatError(f"bad seed set {seed!r}")
    return mask_of(members)


def bundle_graph(
    base: LabeledGraph,
    mode: str = "full",
    seeds: Optional[Iterable[Iterable[int]]] = None,
) -> BundleGraph:
    """Build the all-emit subset graph.

    ``full`` enumerates every nonempty subset (base capped at 16
    vertices) and takes no seeds; ``seeded`` takes the forward closure of
    the given sets, at least one, whose members must be vertex indices.
    """
    require_essential(base)
    require_right_resolving(base, "bundle graph")
    n = len(base.vertices)
    family: Iterable[int]
    if mode == "full":
        if seeds is not None:
            raise GraphFormatError("full bundle mode takes no seed sets")
        family = all_subsets(n, "bundle")
    elif mode == "seeded":
        masks = [_seed_mask(s, n) for s in seeds or ()]
        if not masks:
            raise GraphFormatError("seeded bundle mode needs at least one seed set")
        family = closure_words(_all_emit_steps(base), masks)
    else:
        raise GraphFormatError(f"unknown bundle mode {mode!r}")
    graph, masks, member_edges = _assemble_bundle(base, family)
    return BundleGraph(base, graph, tuple(map(set_of, masks)), member_edges, mode)


@dataclass(frozen=True)
class FiberData:
    """Per-phase past, forward, and fiber source sets of a periodic word."""

    word: PeriodicWord
    past_sets: tuple[frozenset[int], ...]
    forward_sets: tuple[frozenset[int], ...]
    fiber_sets: tuple[frozenset[int], ...]
    count: Union[int, str]


def fiber_count_periodic(base: LabeledGraph, p: PeriodicWord) -> Union[int, str]:
    """Number of bi-infinite paths labeled by the periodic word.

    The vertices such paths pass at phase k are the fiber set there,
    ``fiber[k] = past[k] & forward[k]``, and a path enters v at phase k
    from one of its predecessors along ``p.at(k - 1)`` in ``fiber[k - 1]``.
    A fiber vertex with two of them witnesses uncountably many fiber
    points ("infinite"); otherwise the paths are disjoint cycles through
    the phases and each phase-zero fiber vertex carries exactly one.
    """
    return _fiber_count(base, p, _fiber_masks(base, p)[2])


def _fiber_count(base: LabeledGraph, p: PeriodicWord, fiber: Sequence[int]) -> Union[int, str]:
    """:func:`fiber_count_periodic` on the word's fiber masks."""
    pred = base.index.pred
    for k in range(p.period):
        rows, before = pred[p.at(k - 1)], fiber[k - 1]
        if any((rows[v] & before).bit_count() >= 2 for v in bits(fiber[k])):
            return INFINITE
    return fiber[0].bit_count()


def _fiber_masks(
    base: LabeledGraph, p: PeriodicWord
) -> tuple[list[int], list[int], list[int]]:
    """Past, forward and fiber masks per phase."""
    require_essential(base)
    past = require_realizable(base, p)
    forward = forward_masks(base, p.word)
    fiber = [x & y for x, y in zip(past, forward)]
    if not all(fiber):
        raise VerificationError("realizable word produced an empty fiber set")
    return past, forward, fiber


def fiber_sets_on_periodic(base: LabeledGraph, p: PeriodicWord) -> FiberData:
    """Stabilized past and forward sets per phase; their intersections are
    exactly the source-vertex sets of the word's fiber paths."""
    masks = _fiber_masks(base, p)
    return FiberData(
        p, *(tuple(map(set_of, m)) for m in masks), _fiber_count(base, p, masks[2])
    )


def _fiber_ray(base: LabeledGraph, p: PeriodicWord, fiber: Sequence[int]) -> None:
    """Check that the fiber source sets ``fiber`` of a periodic word, one
    mask per phase, form a periodic bundle path: at each phase every member
    emits the word's symbol, and the all-emit step lands on the next
    phase's set.
    """
    steps = _all_emit_steps(base)
    for k in range(p.period):
        target = steps[p.at(k)](fiber[k])
        if not target:
            raise VerificationError("fiber set fails the all-emit rule")
        if target != fiber[(k + 1) % p.period]:
            raise VerificationError("fiber sets drift from the bundle step")


@dataclass(frozen=True)
class SeedRecord:
    detail: str
    members: frozenset[int]


@dataclass(frozen=True)
class FiberCore(SubsetFamily):
    """Forward closure of the realized fiber source sets in the bundle graph.

    ``member_edges`` is as in :class:`BundleGraph`.  The seed census makes
    the bounded nature of the seed search visible.
    """

    member_edges: tuple[tuple[int, ...], ...]
    seeds: tuple[SeedRecord, ...]


def _tail_seed_masks(
    base: LabeledGraph, max_tail: int, budget: int
) -> tuple[list[tuple[int, int, str]], list[tuple[int, int, str]]]:
    """Past-side and forward-side candidate masks with word budgets.

    Past side: endpoint sets ran(e . m) reached after an idempotent tail,
    i.e. the forward closure of the idempotent ranges; forward side:
    start sets dom(m . f) ahead of an idempotent head, i.e. the backward
    closure of the idempotent domains.  Both stop at words of length
    ``max_tail``.  Each mask keeps its shortest middle word m; on a tie
    the earlier idempotent in monoid order, then the alphabetically least
    m, as in :func:`covers.stable_core`, whose witness is the tail
    ``...e|m`` the description spells; a head is spelled ``|mf...``.
    """
    ranges, domains, words = transition_monoid(base, budget).idempotent_ends

    def word_str(word: tuple[int, ...]) -> str:
        return "".join(base.symbols[a] for a in word)

    past = closure_words(subset_steps(base.index.rows), ranges, max_depth=max_tail)
    forward = closure_words(
        subset_steps(base.index.pred), domains, max_depth=max_tail, prepend=True
    )
    past_list = [
        (mask, cost, f"...{word_str(words[pos])}|{word_str(m)}")
        for mask, (cost, pos, m) in past.items()
    ]
    forward_list = [
        (mask, cost, f"|{word_str(m)}{word_str(words[pos])}...")
        for mask, (cost, pos, m) in forward.items()
    ]
    past_list.sort()
    forward_list.sort()
    return past_list, forward_list


def fiber_core(
    base: LabeledGraph,
    max_tail: int = 8,
    budget: int = DEFAULT_MONOID_BUDGET,
) -> FiberCore:
    """Bundle subgraph generated by realized fiber source sets.

    Seeds are the fiber sets of the doubly-tailed points ``...e|m &
    |m'f...`` whose middle words fit in ``max_tail``; the vertex set is
    their forward closure.  A periodic point is the one with e = f and
    empty middle words, so every periodic fiber set is a seed.  The seed
    search is an explicitly bounded under-approximation of all realized
    fiber sets.
    """
    if max_tail < 0:
        raise GraphFormatError(f"max_tail must be at least 0, got {max_tail}")
    require_essential(base)
    require_right_resolving(base, "fiber core")
    seeds: dict[int, str] = {}  # mask -> detail, in seed order

    past_list, forward_list = _tail_seed_masks(base, max_tail, budget)
    for p_mask, p_cost, p_desc in past_list:
        for f_mask, f_cost, f_desc in forward_list:
            if p_cost + f_cost > max_tail:
                continue
            mask = p_mask & f_mask
            if mask and mask not in seeds:
                seeds[mask] = f"{p_desc} & {f_desc}"

    graph, masks, member_edges = _assemble_bundle(
        base, closure_words(_all_emit_steps(base), list(seeds))
    )
    return FiberCore(
        base,
        graph,
        tuple(map(set_of, masks)),
        member_edges,
        tuple(SeedRecord(text, set_of(mask)) for mask, text in seeds.items()),
    )
