"""Subset covers of a labeled graph and the canonical future cover.

The subset construction sends a set D of vertices and a symbol a to the
set of endpoints of a-labeled edges leaving D.  Restricting the vertex
family to the sets that arise as endpoint sets of left-infinite labeled
paths gives the stable core; merging vertices of the stable core with
equal follower sets gives the future cover, whose vertices stand for the
future sets of left rays of the presented shift.

Two independent routes compute the stable vertex family:

* :func:`stable_core` takes the ranges of the idempotents of the
  transition monoid (an idempotent's range is already stabilized) and
  closes them forward under the subset step, all at once: each set gets
  its shortest continuation word from any range, ties going to the
  earlier idempotent, then to the alphabetically least word;
* :func:`stable_sets_from_tails` composes the relation of every word up
  to a bound from the graph's rows, iterates each one's range to its
  fixpoint, the end of an eventually periodic left tail, and pushes each
  distinct fixpoint through every relation once.

Tests hold the package to exact agreement of the two families.

The extended future cover, the stable core of the future cover, is built
from the same monoid: the future cover's monoid is an image of the base
monoid, so the base idempotent words give the cover's idempotent ranges,
and :func:`extended_future_cover` closes those with the same routine as
:func:`stable_core`.  Its factor map onto the future cover is read off the
witnesses: a vertex with witness (u, v) maps to the class of the base
stable set at the end of the left ray ...uuuv.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from .errors import GraphFormatError, VerificationError
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    bits,
    edge_lookup,
    format_members,
    is_essential,
    kept,
    mask_image,
    require_essential,
    require_right_resolving,
)
from .analysis import (
    CoverBundle,
    follower_contains,
    follower_quotient,
    is_follower_separated,
    require_realizable,
)
from .relations import (
    DEFAULT_MONOID_BUDGET,
    TransitionMonoid,
    compose,
    set_of,
    stabilized_range,
    transition_monoid,
)

FULL_MODE_VERTEX_CAP = 16

Witness = tuple[tuple[int, ...], tuple[int, ...]]  # (repeated word, continuation)
# A stable core's subset graph, members and witnesses, without its base.
CoreParts = tuple[LabeledGraph, tuple[frozenset[int], ...], tuple[Witness, ...]]
# One symbol's step on vertex masks; 0 where the step is undefined.
Step = Callable[[int], int]


@dataclass(frozen=True)
class SubsetFamily:
    """A graph whose vertex i stands for the set ``members[i]`` of
    vertices of ``base``."""

    base: LabeledGraph
    graph: LabeledGraph
    members: tuple[frozenset[int], ...]

    def member_index(self) -> dict[frozenset[int], int]:
        return {m: i for i, m in enumerate(self.members)}


@dataclass(frozen=True)
class SubsetGraph(SubsetFamily):
    """Determinization of a labeled graph over a family of vertex subsets."""

    mode: str


@dataclass(frozen=True)
class StableCore(SubsetFamily):
    """Subset cover on the stabilized endpoint sets of left-infinite paths.

    ``witnesses[i]`` is a pair of words (u, v): reading v after infinitely
    many copies of u ends exactly in ``members[i]``.  u is the word of an
    idempotent of ``monoid``, the transition monoid of the graph the
    covers are built from: ``base``'s own, or on the extended future cover
    (the stable core of a future cover) the monoid of the presentation
    under the future cover.
    """

    witnesses: tuple[Witness, ...]
    monoid: TransitionMonoid


def subset_key(mask: int) -> tuple[int, list[int]]:
    """Order of subset-family vertices: by size, then by sorted members."""
    members = bits(mask)
    return (len(members), members)


def all_subsets(n: int, mode: str) -> range:
    """Every nonempty subset mask of n vertices, for the ``full`` subset and
    bundle modes; ``mode`` names the caller's mode in the cap error."""
    if n > FULL_MODE_VERTEX_CAP:
        raise GraphFormatError(
            f"full {mode} mode supports at most {FULL_MODE_VERTEX_CAP} "
            f"vertices, got {n}"
        )
    return range(1, 1 << n)


def subset_steps(table: Sequence[Sequence[int]]) -> list[Step]:
    """The subset step along each symbol of a row table (a graph's
    ``index.rows``, or ``index.pred`` to step backwards)."""
    return [partial(mask_image, rows) for rows in table]


def assemble_subset_graph(
    base: LabeledGraph, family: Iterable[int], steps: Sequence[Step]
) -> tuple[LabeledGraph, list[int]]:
    """The graph on a step-closed family of vertex masks, in subset order.

    Vertex i is the i-th mask; an edge reads symbol a wherever ``steps[a]``
    is defined.  Closure of the family is asserted, never repaired.
    """
    masks = sorted(family, key=subset_key)
    index = {mask: i for i, mask in enumerate(masks)}
    edges = []
    for i, mask in enumerate(masks):
        for a, step in enumerate(steps):
            target = step(mask)
            if not target:
                continue
            if target not in index:
                raise VerificationError(
                    f"subset family not closed: {format_members(base, mask)} "
                    f"-{base.symbols[a]}-> {format_members(base, target)}"
                )
            edges.append((i, a, index[target]))
    graph = LabeledGraph(
        base.symbols,
        tuple(format_members(base, m) for m in masks),
        tuple(edges),
    )
    return graph, masks


def subset_construction(base: LabeledGraph, mode: str = "reachable-from-full") -> SubsetGraph:
    """Subset cover of an essential graph; right-resolving by construction.

    ``full`` uses every nonempty vertex subset (capped at 16 base
    vertices); ``reachable-from-full`` only the subsets reachable from the
    set of all vertices.
    """
    require_essential(base)
    n = len(base.vertices)
    steps = subset_steps(base.index.rows)
    family: Iterable[int]
    if mode == "full":
        family = all_subsets(n, "subset")
    elif mode == "reachable-from-full":
        family = closure_words(steps, [(1 << n) - 1])
    else:
        raise GraphFormatError(f"unknown subset mode {mode!r}")
    graph, masks = assemble_subset_graph(base, family, steps)
    return SubsetGraph(base, graph, tuple(map(set_of, masks)), mode)


def closure_words(
    steps: Sequence[Step],
    sources: Sequence[int],
    max_depth: Optional[int] = None,
    prepend: bool = False,
) -> dict[int, tuple[int, int, tuple[int, ...]]]:
    """Vertex masks reachable from ``sources`` along the subset step.

    Maps each reached mask to (depth, source position, word): depth is the
    fewest steps from any source, and (source position, word) is the least
    such pair, words compared letter by letter.  Reading symbol a maps a
    mask to ``steps[a](mask)``; with ``prepend`` the words grow at
    the front, as they do for a backward step.  Search runs level by
    level, up to ``max_depth`` steps when given.  The empty mask is neither
    entered nor expanded.

    A least word of depth d+1 is a letter plus a least word of depth d (or
    the reverse), and the words it extends reach masks of depth exactly d,
    so each level only needs the level before it.
    """
    found: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    frontier: dict[int, tuple[int, tuple[int, ...]]] = {}
    for pos, mask in enumerate(sources):
        if mask and mask not in frontier:
            frontier[mask] = (pos, ())
    depth = 0
    while frontier:
        for mask, (pos, word) in frontier.items():
            found[mask] = (depth, pos, word)
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        nxt: dict[int, tuple[int, tuple[int, ...]]] = {}
        for mask, (pos, word) in frontier.items():
            for a, step in enumerate(steps):
                target = step(mask)
                if not target or target in found:
                    continue
                label = (pos, (a,) + word if prepend else word + (a,))
                if target not in nxt or label < nxt[target]:
                    nxt[target] = label
        frontier = nxt
    return found


def stable_core(
    base: LabeledGraph, budget: int = DEFAULT_MONOID_BUDGET
) -> StableCore:
    """Subset cover on the stabilized endpoint sets of left-infinite paths.

    A set is stable exactly when it is ran(e . m) for an idempotent e of
    the transition monoid and an element m (or nothing) after it: the
    left tail repeats e's word forever and then reads m's word.  Since
    ran(e . m) is the subset step from ran(e) along m's word, the family
    is the forward closure of the idempotent ranges, one
    :func:`closure_words` call.  Only the idempotents' ranges and words are
    read from the monoid, which ``base`` keeps after its first generation
    (see :func:`transition_monoid`).  The core's subset graph, members and
    witnesses are kept on ``base`` too (:func:`graphs.kept`), so every call
    wraps the same graph, and what is kept on that graph, such as its
    follower quotient, serves every cover built from it.  The monoid is
    asked for first, so a budget overrun raises whether or not a core was
    kept.

    A set's witness is (e's word, m) for the shortest m that takes some
    idempotent range to it, ties going to the earlier idempotent in monoid
    order, then to the alphabetically least m: the rule of the fiber
    core's past-side tail seeds, so both name the same tail.  The family's
    closure under the subset step is asserted, never repaired.
    """
    require_essential(base)
    monoid = transition_monoid(base, budget)
    ranges = monoid.idempotent_ends[0]
    parts = kept(base, "_stable_core", lambda g: _closed_core(g, ranges, monoid))
    return StableCore(base, *parts, monoid)


def _closed_core(
    base: LabeledGraph, ranges: Sequence[int], monoid: TransitionMonoid
) -> CoreParts:
    """The stable core of ``base`` from the ranges on ``base`` of the
    idempotents of ``monoid``, in monoid order: their forward closure,
    its subset graph, the members, and each set's witness (idempotent
    word, least continuation), as :func:`stable_core` describes.  None of
    the three refers to ``base``."""
    words = monoid.idempotent_ends[2]
    steps = subset_steps(base.index.rows)
    found = closure_words(steps, ranges)
    graph, masks = assemble_subset_graph(base, found, steps)
    if not is_essential(graph):
        raise VerificationError("stable core came out non-essential")
    require_right_resolving(graph, "stable core")
    witnesses = tuple((words[found[m][1]], found[m][2]) for m in masks)
    return graph, tuple(map(set_of, masks)), witnesses


def stable_sets_from_tails(base: LabeledGraph, max_len: int) -> set[frozenset[int]]:
    """Stabilized endpoint sets computed tail by tail.

    The relations of the words of length 1..max_len are composed from
    the graph's rows, breadth-first, each distinct one once.  A tail u^k
    ends, in the limit, in the stabilized range of u's relation; a
    continuation v then takes it to its image under v's relation.  Every
    nonempty such set is in the family.  With max_len at least the
    longest shortest word of a monoid element, this enumerates every
    stabilized set.  Each distinct range is pushed through the relations
    once: a second tail with the same range would reach the same sets.
    """
    require_essential(base)
    generators = base.index.rows
    relations = set(generators)
    layer = relations
    for _ in range(max_len - 1):
        layer = {compose(rows, gen) for rows in layer for gen in generators} - relations
        if not layer:
            break
        relations |= layer
    ranges = {stabilized_range(rows) for rows in relations} - {0}
    family = ranges | {mask_image(rows, stable) for stable in ranges for rows in relations}
    family.discard(0)
    return set(map(set_of, family))


@dataclass(frozen=True)
class PeriodicRay:
    """The periodic path a periodic word traces through a subset cover."""

    word: PeriodicWord
    vertices: tuple[int, ...]  # cover vertex per phase 0..period-1
    edges: tuple[int, ...]  # cover edge per phase


def past_set_ray(core: StableCore, p: PeriodicWord) -> PeriodicRay:
    """Canonical presentation of a periodic word in the stable core.

    The vertex at phase k is the word's past set there: the endpoints of
    the left-infinite paths labeled by the copies of p and then its first
    k symbols, from one walk of the word (:func:`analysis.past_masks`).
    """
    return _past_set_ray(core, p, require_realizable(core.base, p))


def _past_set_ray(core: StableCore, p: PeriodicWord, past: Sequence[int]) -> PeriodicRay:
    """:func:`past_set_ray` on the word's past masks in ``core.base``."""
    index = core.member_index()
    lookup = edge_lookup(core.graph)
    verts = []
    for mask in past:
        v = index.get(set_of(mask))
        if v is None:
            raise VerificationError(
                f"stabilized set {format_members(core.base, mask)} missing "
                "from the stable core"
            )
        verts.append(v)
    edges = []
    for k in range(p.period):
        key = (verts[k], p.at(k))
        if key not in lookup:
            raise VerificationError("stable core lost the edge under a periodic word")
        edge = lookup[key]
        target = core.graph.edges[edge][2]
        if target != verts[(k + 1) % p.period]:
            raise VerificationError("periodic ray does not close up in the stable core")
        edges.append(edge)
    return PeriodicRay(p, tuple(verts), tuple(edges))


def merged_graph(origin: LabeledGraph) -> CoverBundle:
    """Quotient by equal follower sets: the origin's kept
    :func:`analysis.follower_quotient`, so every call returns the same
    bundle.

    Each origin edge projects to an edge between classes, and every
    quotient edge arises this way.  The quotient is right-resolving and
    follower-separated; both are asserted.
    """
    bundle = follower_quotient(origin)
    require_right_resolving(bundle.cover, "merged graph")
    if not is_follower_separated(bundle.cover):
        raise VerificationError("merged graph is not follower-separated")
    return bundle


@dataclass(frozen=True)
class FutureCover:
    """Stable core of a graph together with its follower-merged quotient.

    The quotient presents the same shift with one vertex per future set of
    a left ray; the bundle's classes record which stabilized endpoint sets
    share a future.
    """

    core: StableCore
    bundle: CoverBundle

    @property
    def cover(self) -> LabeledGraph:
        return self.bundle.cover


def future_cover(base: LabeledGraph, budget: int = DEFAULT_MONOID_BUDGET) -> FutureCover:
    core = stable_core(base, budget)
    return FutureCover(core, merged_graph(core.graph))


@dataclass(frozen=True)
class ExtendedFutureCover:
    """Stable core of the future cover, with the factor map back onto it.

    ``factor_vertex[i]`` is the future-cover vertex under vertex i of the
    extended cover.  The map is injective exactly when the extended cover
    is isomorphic to the future cover; otherwise it is a genuine extension.
    """

    future: FutureCover
    core: StableCore
    factor_vertex: tuple[int, ...]

    @property
    def graph(self) -> LabeledGraph:
        return self.core.graph


def _word_image(g: LabeledGraph, mask: int, word: Sequence[int]) -> int:
    """The subset step from ``mask`` along each symbol of ``word`` in turn."""
    rows = g.index.rows
    for a in word:
        mask = mask_image(rows[a], mask)
    return mask


def extended_future_cover(
    base: LabeledGraph, budget: int = DEFAULT_MONOID_BUDGET
) -> ExtendedFutureCover:
    """The stable core of the future cover and its factor map onto the
    future cover, both from ``base``'s one transition monoid.

    A word's relation on ``base`` fixes its step on the stable sets and so
    on their follower classes: the future cover's transition monoid is an
    image of the base monoid.  In a finite monoid the image of s^ω is the
    image of s, raised to ω, so every idempotent of the image is the image
    of a base idempotent, and the cover's idempotent ranges are the images
    of its whole vertex set under the base idempotent words.  Their closure
    (:func:`_closed_core`) is the cover's stable family; witnesses name
    base idempotent words, ties going to the earlier one in base monoid
    order.

    A vertex D with witness (u, v) maps to the class of the base stable
    set reached from every base vertex along uv: the past-cover vertex of
    the left ray ...uuuv, whose class is the member of D whose follower
    set contains every other member's.  That the map is a label-preserving
    homomorphism onto the future cover is asserted, never repaired.
    """
    future = future_cover(base, budget)
    cover, monoid = future.cover, future.core.monoid
    cover_full = (1 << len(cover.vertices)) - 1
    # Not kept on ``cover``: these witnesses name base words, not words of
    # the cover's own monoid, which stable_core(cover) would use.
    parts = _closed_core(
        cover, [_word_image(cover, cover_full, u) for u in monoid.idempotent_ends[2]], monoid
    )
    core = StableCore(cover, *parts, monoid)
    index = future.core.member_index()
    base_full = (1 << len(base.vertices)) - 1
    classes = future.bundle.factor_vertex
    factor = tuple(
        classes[index[set_of(_word_image(base, base_full, u + v))]]
        for u, v in core.witnesses
    )
    edge_at, hit = cover.index.edge_at, set()
    for e, (i, a, j) in enumerate(core.graph.edges):
        k = edge_at.get((factor[i], a))
        if k is None or cover.edges[k][2] != factor[j]:
            raise VerificationError(
                f"factor map sends edge {core.graph.edge_name(e)} off the future cover"
            )
        hit.add(k)
    if len(hit) != len(cover.edges):
        raise VerificationError("factor map misses an edge of the future cover")
    return ExtendedFutureCover(future, core, factor)


@dataclass(frozen=True)
class RegularityReport:
    """Per-vertex regularity verdicts with witnessing stable sets."""

    regular: tuple[bool, ...]
    witness: tuple[Optional[frozenset[int]], ...]

    @property
    def ok(self) -> bool:
        return all(self.regular)

    def failing_vertices(self) -> list[int]:
        return [v for v, good in enumerate(self.regular) if not good]


def check_regular(
    base: LabeledGraph, budget: int = DEFAULT_MONOID_BUDGET
) -> RegularityReport:
    """Whether every vertex's follower set is the future set of some left ray.

    Vertex v qualifies exactly when some stable set D containing v has
    every member's follower set inside v's; then the tail realizing D has
    future set equal to v's follower set.
    """
    require_essential(base)
    require_right_resolving(base, "regularity check")
    core = stable_core(base, budget)
    verdicts = []
    witnesses: list[Optional[frozenset[int]]] = []
    for v in range(len(base.vertices)):
        hit = None
        for members in core.members:
            if v in members and all(follower_contains(base, u, v) for u in members):
                hit = members
                break
        verdicts.append(hit is not None)
        witnesses.append(hit)
    return RegularityReport(tuple(verdicts), tuple(witnesses))
