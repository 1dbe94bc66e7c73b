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
  closes them forward under the subset step; breadth-first search with
  symbols in alphabet order gives each set its shortest, then
  alphabetically least, continuation word;
* :func:`stable_sets_from_tails` iterates the range of each candidate
  tail relation to its fixpoint, one eventually periodic left tail at a
  time.

Tests hold the package to exact agreement of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Optional, Sequence

from .errors import GraphFormatError, VerificationError
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    edge_lookup,
    format_members,
    is_essential,
    require_essential,
    require_right_resolving,
)
from .analysis import follower_contains, follower_partition, require_realizable
from .relations import (
    DEFAULT_MONOID_BUDGET,
    BoolRelation,
    TransitionMonoid,
    mask_of,
    set_of,
    stabilized_range,
    symbol_relation,
    transition_monoid,
    word_relation,
)

FULL_MODE_VERTEX_CAP = 16

Witness = tuple[tuple[int, ...], tuple[int, ...]]  # (repeated word, continuation)


@dataclass(frozen=True)
class SubsetGraph:
    """Determinization of a labeled graph over a family of vertex subsets."""

    base: LabeledGraph
    graph: LabeledGraph
    members: tuple[frozenset[int], ...]
    mode: str

    def member_index(self) -> dict[frozenset[int], int]:
        return {m: i for i, m in enumerate(self.members)}


@dataclass(frozen=True)
class StableCore:
    """Subset cover on the stabilized endpoint sets of left-infinite paths.

    ``witnesses[i]`` is a pair of words (u, v): reading v after infinitely
    many copies of u ends exactly in ``members[i]``.
    """

    base: LabeledGraph
    graph: LabeledGraph
    members: tuple[frozenset[int], ...]
    witnesses: tuple[Witness, ...]
    monoid: TransitionMonoid

    def member_index(self) -> dict[frozenset[int], int]:
        return {m: i for i, m in enumerate(self.members)}


def subset_key(members: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    """Order of subset-family vertices: by size, then by sorted members."""
    return (len(members), tuple(sorted(members)))


def all_subsets(n: int, mode: str) -> list[frozenset[int]]:
    """Every nonempty subset of n vertices, for the ``full`` subset and
    bundle modes; ``mode`` names the caller's mode in the cap error."""
    if n > FULL_MODE_VERTEX_CAP:
        raise GraphFormatError(
            f"full {mode} mode supports at most {FULL_MODE_VERTEX_CAP} "
            f"vertices, got {n}"
        )
    return [set_of(mask, n) for mask in range(1, 1 << n)]


def _build_subset_graph(
    base: LabeledGraph, family: list[frozenset[int]]
) -> tuple[LabeledGraph, tuple[frozenset[int], ...]]:
    members = tuple(sorted(family, key=subset_key))
    index = {mask_of(m): i for i, m in enumerate(members)}
    steps = [symbol_relation(base, a) for a in range(len(base.symbols))]
    edges = []
    for i, mem in enumerate(members):
        mask = mask_of(mem)
        for a, rel in enumerate(steps):
            target = rel.image(mask)
            if not target:
                continue
            if target not in index:
                raise VerificationError(
                    f"subset family not closed: {format_members(base, mem)} "
                    f"-{base.symbols[a]}-> "
                    f"{format_members(base, set_of(target, len(base.vertices)))}"
                )
            edges.append((i, a, index[target]))
    graph = LabeledGraph(
        base.symbols,
        tuple(format_members(base, m) for m in members),
        tuple(edges),
    )
    return graph, members


def subset_construction(base: LabeledGraph, mode: str = "reachable-from-full") -> SubsetGraph:
    """Subset cover of an essential graph; right-resolving by construction.

    ``full`` uses every nonempty vertex subset (capped at 16 base
    vertices); ``reachable-from-full`` only the subsets reachable from the
    set of all vertices.
    """
    require_essential(base)
    n = len(base.vertices)
    if mode == "full":
        family = all_subsets(n, "subset")
    elif mode in ("reachable-from-full", "reachable"):
        mode = "reachable-from-full"
        steps = [symbol_relation(base, a) for a in range(len(base.symbols))]
        family = [set_of(mask, n) for mask in closure_words(steps, [(1 << n) - 1])]
    else:
        raise GraphFormatError(f"unknown subset mode {mode!r}")
    graph, members = _build_subset_graph(base, family)
    return SubsetGraph(base, graph, members, mode)


def closure_words(
    steps: Sequence[BoolRelation],
    sources: Sequence[int],
    max_depth: Optional[int] = None,
    prepend: bool = False,
    known: Container[int] = (),
) -> dict[int, tuple[int, int, tuple[int, ...]]]:
    """Vertex masks reachable from ``sources`` along the subset step.

    Maps each reached mask to (depth, source position, word): depth is the
    fewest steps from any source, and (source position, word) is the least
    such pair, words compared letter by letter.  Reading symbol a maps a
    mask to ``steps[a].image(mask)``; with ``prepend`` the words grow at
    the front, as they do for a backward step.  Search runs level by
    level, up to ``max_depth`` steps when given.  The empty mask and masks
    in ``known`` are neither entered nor expanded.

    A least word of depth d+1 is a letter plus a least word of depth d (or
    the reverse), and the words it extends reach masks of depth exactly d,
    so each level only needs the level before it.
    """
    found: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    frontier: dict[int, tuple[int, tuple[int, ...]]] = {}
    for pos, mask in enumerate(sources):
        if mask and mask not in known and mask not in frontier:
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
            for a, rel in enumerate(steps):
                target = rel.image(mask)
                if not target or target in found or target in known:
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
    is the forward closure of the idempotent ranges.

    Idempotents are taken in monoid order.  A set's witness is (e's word,
    v) for the first e whose range reaches it, with v the shortest, then
    alphabetically least, word that gets there; this is the first monoid
    element that does.  The closure from a range already in the family
    adds nothing, so each stable set is expanded once.  The family's
    closure under the subset step is asserted, never repaired.
    """
    require_essential(base)
    monoid = transition_monoid(base, budget)
    n = len(base.vertices)
    steps = [symbol_relation(base, a) for a in range(len(base.symbols))]
    found: dict[int, Witness] = {}
    for e_idx in monoid.idempotent_indices():
        ran = monoid.elements[e_idx].ran_mask()
        if not ran or ran in found:
            continue
        e_word = monoid.word_of(e_idx)
        for mask, (_, _, word) in closure_words(steps, [ran], known=found).items():
            found[mask] = (e_word, word)
    graph, members = _build_subset_graph(base, [set_of(mask, n) for mask in found])
    if not is_essential(graph):
        raise VerificationError("stable core came out non-essential")
    require_right_resolving(graph, "stable core")
    witnesses = tuple(found[mask_of(m)] for m in members)
    return StableCore(base, graph, members, witnesses, monoid)


def stable_sets_from_tails(
    base: LabeledGraph, max_len: int
) -> dict[frozenset[int], Witness]:
    """Stabilized endpoint sets computed tail by tail.

    For words u (1..max_len) and v (0..max_len), iterate the endpoint set
    of u^k to its fixpoint and push it through v.  Words sharing a
    relation are collapsed, which loses nothing: the result depends on the
    relation alone.  With max_len at least the longest shortest word of a
    monoid element, this enumerates every stabilized set.
    """
    require_essential(base)
    n = len(base.vertices)
    generators = [symbol_relation(base, a) for a in range(len(base.symbols))]
    by_rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    layer = []
    for a, rel in enumerate(generators):
        if rel.rows not in by_rows:
            by_rows[rel.rows] = (a,)
            layer.append(rel)
    for _ in range(max_len - 1):
        nxt = []
        for rel in layer:
            for a, gen in enumerate(generators):
                comp = rel.compose(gen)
                if comp.rows not in by_rows:
                    by_rows[comp.rows] = by_rows[rel.rows] + (a,)
                    nxt.append(comp)
        layer = nxt
        if not layer:
            break
    relations = [(BoolRelation(n, rows), word) for rows, word in by_rows.items()]
    relations.sort(key=lambda rw: (len(rw[1]), rw[1]))
    result: dict[frozenset[int], Witness] = {}
    for tail_rel, u_word in relations:
        stable = stabilized_range(tail_rel)
        if not stable:
            continue
        stable_mask = mask_of(stable)
        if stable not in result:
            result[stable] = (u_word, ())
        for cont_rel, v_word in relations:
            members = set_of(cont_rel.image(stable_mask), n)
            if members and members not in result:
                result[members] = (u_word, v_word)
    return result


@dataclass(frozen=True)
class PeriodicRay:
    """The periodic path a periodic word traces through a subset cover."""

    word: PeriodicWord
    vertices: tuple[int, ...]  # cover vertex per phase 0..period-1
    edges: tuple[int, ...]  # cover edge per phase

    @property
    def period(self) -> int:
        return len(self.edges)


def past_set_ray(core: StableCore, p: PeriodicWord) -> PeriodicRay:
    """Canonical presentation of a periodic word in the stable core.

    The vertex at phase k is the stabilized endpoint set of the left tail
    ending just before k, i.e. the fixpoint range of the rotation of p
    starting at k.
    """
    require_realizable(core.base, p)
    index = core.member_index()
    lookup = edge_lookup(core.graph)
    verts = []
    for k in range(p.period):
        members = stabilized_range(word_relation(core.base, p.rotation_from(k)))
        if members not in index:
            raise VerificationError(
                f"stabilized set {format_members(core.base, members)} missing "
                "from the stable core"
            )
        verts.append(index[members])
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


@dataclass(frozen=True)
class CoverBundle:
    """A graph together with its follower-merged quotient.

    ``factor_vertex[v]`` is the quotient vertex of origin vertex v;
    ``classes[c]`` lists the origin vertices merged into quotient vertex
    c; ``factor_edge[k]`` is the quotient edge under origin edge k.
    """

    origin: LabeledGraph
    cover: LabeledGraph
    factor_vertex: tuple[int, ...]
    factor_edge: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def map_edge_window(self, edges):
        return tuple(self.factor_edge[k] for k in edges)


def merged_graph(origin: LabeledGraph) -> CoverBundle:
    """Quotient by equal follower sets.

    Only the edges of the origin are scanned: each origin edge projects to
    an edge between classes, and every quotient edge arises this way.  The
    result is right-resolving and follower-separated; both are asserted.
    """
    partition = follower_partition(origin)
    factor = [0] * len(origin.vertices)
    classes = []
    for c, block in enumerate(partition):
        classes.append(tuple(sorted(block)))
        for v in block:
            factor[v] = c
    names = tuple(origin.vertices[cls[0]] for cls in classes)
    edge_index: dict[tuple[int, int, int], int] = {}
    edges: list[tuple[int, int, int]] = []
    factor_edge = []
    for u, a, v in origin.edges:
        triple = (factor[u], a, factor[v])
        if triple not in edge_index:
            edge_index[triple] = len(edges)
            edges.append(triple)
        factor_edge.append(edge_index[triple])
    cover = LabeledGraph(origin.symbols, names, tuple(edges))
    require_right_resolving(cover, "merged graph")
    if not all(len(c) == 1 for c in follower_partition(cover)):
        raise VerificationError("merged graph is not follower-separated")
    return CoverBundle(
        origin, cover, tuple(factor), tuple(factor_edge), tuple(classes)
    )


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
    """Stable core of the future cover, with the factor map back onto it."""

    future: FutureCover
    core: StableCore
    merge: CoverBundle

    @property
    def graph(self) -> LabeledGraph:
        return self.core.graph


def extended_future_cover(
    base: LabeledGraph, budget: int = DEFAULT_MONOID_BUDGET
) -> ExtendedFutureCover:
    future = future_cover(base, budget)
    core = stable_core(future.cover, budget)
    return ExtendedFutureCover(future, core, merged_graph(core.graph))


@dataclass(frozen=True)
class RegularityReport:
    """Per-vertex regularity verdicts with witnessing stable sets."""

    ok: bool
    regular: tuple[bool, ...]
    witness: tuple[Optional[frozenset[int]], ...]

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
    memo: dict[tuple[int, int], bool] = {}

    def contains(u: int, v: int) -> bool:
        if (u, v) not in memo:
            memo[(u, v)] = follower_contains(base, u, v)
        return memo[(u, v)]

    verdicts = []
    witnesses: list[Optional[frozenset[int]]] = []
    for v in range(len(base.vertices)):
        hit = None
        for members in core.members:
            if v in members and all(contains(u, v) for u in members):
                hit = members
                break
        verdicts.append(hit is not None)
        witnesses.append(hit)
    return RegularityReport(all(verdicts), tuple(verdicts), tuple(witnesses))
