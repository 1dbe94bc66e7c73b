"""Component structure, follower sets, periodic words, and isomorphism.

Follower sets are the label sequences of right-infinite paths out of a
vertex.  On an essential graph they are determined by the finite path
labels, so partition refinement and the pair-set containment search below
are exact, not approximations.  One colour-refinement routine on the edge
index gives both the follower classes (out-edges) and the isomorphism
colouring (out- and in-edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import UnrealizableWordError
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    least_rotation,
    mask_image,
    primitive_root,
    require_essential,
    require_right_resolving,
    words_up_to,
)
from .relations import symbol_relation


@dataclass(frozen=True)
class ComponentInfo:
    """Irreducible components (SCCs containing at least one edge) of a graph.

    ``component_of[v]`` is the component index of vertex v, or None for
    vertices on no cycle.  A component is a source when no edge enters it
    from outside.  When per-vertex member sets are supplied (cover graphs),
    ``multiplicity`` holds the common member-set size of each component's
    vertices, or None where the sizes disagree.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[Optional[int], ...]
    is_source: tuple[bool, ...]
    multiplicity: tuple[Optional[int], ...]


def components_and_sources(
    g: LabeledGraph, members: Optional[Sequence[frozenset[int]]] = None
) -> ComponentInfo:
    """Tarjan decomposition keeping only SCCs that contain an edge."""
    n = len(g.vertices)
    succ = [[g.edges[k][2] for k in out] for out in g.index.out]
    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if root in index_of:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            while pi < len(succ[v]):
                w = succ[v][pi]
                pi += 1
                if w not in index_of:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    kept = [comp for comp in sccs if len(comp) > 1 or comp[0] in succ[comp[0]]]
    kept.sort(key=lambda comp: comp[0])
    component_of: list[Optional[int]] = [None] * n
    for i, comp in enumerate(kept):
        for v in comp:
            component_of[v] = i
    is_source = [True] * len(kept)
    for u, _, v in g.edges:
        ci = component_of[v]
        if ci is not None and component_of[u] != ci:
            is_source[ci] = False
    multiplicity: list[Optional[int]] = [None] * len(kept)
    if members is not None:
        for i, comp in enumerate(kept):
            sizes = {len(members[v]) for v in comp}
            multiplicity[i] = sizes.pop() if len(sizes) == 1 else None
    return ComponentInfo(
        tuple(tuple(c) for c in kept),
        tuple(component_of),
        tuple(is_source),
        tuple(multiplicity),
    )


def _refine(adjacency: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """The coarsest equitable partition of the ``(tag, w)`` arcs in
    ``adjacency[v]``, as a class id per vertex.

    Two vertices share a class exactly when, for every class and tag, they
    have equally many arcs with that tag into it: the partition colour
    refinement reaches from one colour.  Hopcroft's splitting in its
    counting form (Paige & Tarjan 1987): pop a splitter class, count each
    vertex's arcs into it per tag, and split only the classes it touches
    by that count.  Every new piece but the largest is queued.  The
    largest keeps the old id, and stays queued if it was: its counts are
    those into the old class minus those into the other pieces.  Once
    every class is a single vertex nothing can split, so the search stops.
    Ids are not canonical; only the partition is.
    """
    n = len(adjacency)
    into: list[dict[int, list[int]]] = [{} for _ in range(n)]  # w -> tag -> sources
    for v, arcs in enumerate(adjacency):
        for tag, w in arcs:
            sources = into[w].get(tag)
            if sources is None:
                into[w][tag] = [v]
            else:
                sources.append(v)
    colour = [0] * n
    members = [set(range(n))]
    todo = [0]
    while todo and len(members) < n:
        splitter = todo.pop()
        counts: dict[int, dict[int, int]] = {}  # tag -> vertex -> arcs into splitter
        for w in members[splitter]:
            for tag, sources in into[w].items():
                count = counts.get(tag)
                if count is None:
                    count = counts[tag] = {}
                for v in sources:
                    count[v] = count.get(v, 0) + 1
        for count in counts.values():
            touched: dict[int, dict[int, list[int]]] = {}  # class -> count -> vertices
            for v, k in count.items():
                c = colour[v]
                if len(members[c]) == 1:  # a single vertex cannot split
                    continue
                pieces = touched.get(c)
                if pieces is None:
                    touched[c] = {k: [v]}
                elif k in pieces:
                    pieces[k].append(v)
                else:
                    pieces[k] = [v]
            for c, pieces in touched.items():
                old = members[c]
                groups = list(pieces.values())
                if len(groups) == 1 and len(groups[0]) == len(old):
                    continue
                rest = len(old) - sum(map(len, groups))
                largest = max(groups, key=len)
                if rest < len(largest):
                    groups.remove(largest)
                    if rest:
                        groups.append([v for v in old if v not in count])
                for group in groups:
                    new = len(members)
                    members.append(set(group))
                    old.difference_update(group)
                    for v in group:
                        colour[v] = new
                    todo.append(new)
    return colour


def follower_partition(g: LabeledGraph) -> tuple[frozenset[int], ...]:
    """Group vertices by equal follower set: the coarsest partition in
    which every vertex of a class has an out-edge of each symbol into the
    same class, found by :func:`_refine` on the ``(symbol, target)``
    out-edges.

    Needs an essential right-resolving graph.  Classes are ordered by
    their smallest vertex.
    """
    require_essential(g)
    require_right_resolving(g)
    colour = _refine([[g.edges[k][1:] for k in out] for out in g.index.out])
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colour):
        classes.setdefault(c, []).append(v)
    return tuple(frozenset(c) for c in classes.values())


def is_follower_separated(g: LabeledGraph) -> bool:
    return all(len(c) == 1 for c in follower_partition(g))


def follower_contains(g: LabeledGraph, u: int, v: int) -> bool:
    """Whether every label sequence out of ``u`` also occurs out of ``v``.

    Search over pairs (vertex on the u side, surviving subset on the v
    side, as a bitmask); containment fails exactly when some reachable
    pair can emit a symbol that kills the subset.  Finite-word containment
    suffices on an essential graph.
    """
    require_essential(g)
    require_right_resolving(g)
    steps = [symbol_relation(g, a) for a in range(len(g.symbols))]
    start = (u, 1 << v)
    seen = {start}
    todo = [start]
    while todo:
        u1, vs = todo.pop()
        for k in g.index.out[u1]:
            _, a, w = g.edges[k]
            step = steps[a].image(vs)
            if not step:
                return False
            state = (w, step)
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return True


def _greatest_cycle(rows: Sequence[Sequence[int]], word: Sequence[int]) -> list[int]:
    """The masks S_0, ..., S_{T-1} with S_{k+1} = step(S_k, word[k]) and
    S_T = S_0, each as large as possible.

    ``rows[a]`` is the step along symbol a.  S_0 is the greatest fixpoint
    of stepping once around the word, reached from the full vertex set;
    the masks only shrink until they repeat, so this takes at most n + 1
    rounds.  The last round passes through every phase.
    """
    mask = (1 << len(rows[0])) - 1
    while True:
        phases = []
        current = mask
        for a in word:
            phases.append(current)
            current = mask_image(rows[a], current)
        if current == mask:
            return phases
        mask = current


def past_masks(g: LabeledGraph, word: Sequence[int]) -> list[int]:
    """Stabilized past set of the periodic point ...www.www... at each
    phase: mask k holds the ends of the left-infinite paths labeled by
    the word's copies and then ``word[:k]``.

    The word may be any nonempty word, primitive or not.  It repeats
    forever in the graph exactly when these masks are nonempty.
    """
    return _greatest_cycle(g.index.rows, word)


def forward_masks(g: LabeledGraph, word: Sequence[int]) -> list[int]:
    """Stabilized forward set of the periodic point at each phase: mask k
    holds the starts of the right-infinite paths labeled by ``word[k:]``
    and then the word's copies.  The same walk as :func:`past_masks`,
    backwards over the word along the predecessor rows."""
    back = _greatest_cycle(g.index.pred, word[::-1])
    return [back[-k % len(word)] for k in range(len(word))]


def periodic_points(g: LabeledGraph, max_period: int) -> list[PeriodicWord]:
    """Periodic label words of least period <= max_period with a bi-infinite
    realization, in primitive least-rotation form, without duplicates.

    A word repeats forever in the graph exactly when its past set at
    phase 0 is nonempty.  A realizable word in least-rotation form is
    itself a path word, so only the enumerated words already in that form
    need testing.
    """
    require_essential(g)
    found = [
        w
        for w in words_up_to(g, max_period)
        if w == least_rotation(primitive_root(w)) and past_masks(g, w)[0]
    ]
    return [PeriodicWord(w) for w in sorted(found, key=lambda w: (len(w), w))]


def require_realizable(g: LabeledGraph, p: PeriodicWord) -> list[int]:
    """The word's past masks per phase; raises UnrealizableWordError when
    no bi-infinite path carries it."""
    past = past_masks(g, p.word)
    if not past[0]:
        raise UnrealizableWordError(
            f"word {p.word!r} has no bi-infinite labeled path"
        )
    return past


@dataclass(frozen=True)
class IsomorphismResult:
    isomorphic: bool
    mapping: Optional[tuple[int, ...]]  # g1 vertex -> g2 vertex


def graphs_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> IsomorphismResult:
    """Label-preserving digraph isomorphism by refinement plus backtracking.

    Labels are matched by symbol name, so the two graphs may list their
    alphabets in different orders.  One :func:`_refine` call on the
    disjoint union of both graphs, g2's vertices after g1's, colours both
    with shared class ids.  Each class must hold as many vertices of g1 as
    of g2, and a vertex is only tried against g2's vertices of its class,
    in vertex order; an isomorphism maps every vertex into its class.
    Refinement counts each arc O(log n) times; the backtracking can still
    take exponential time where refinement leaves large classes.
    """
    n = len(g1.vertices)
    if n != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return IsomorphismResult(False, None)
    shared = sorted(set(g1.symbols) | set(g2.symbols))
    # Out-edges tagged 2 * symbol rank, in-edges 2 * symbol rank + 1; the
    # union's vertex n + w is g2's vertex w.
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for g, offset in ((g1, 0), (g2, n)):
        sym = [2 * shared.index(s) for s in g.symbols]
        for u, a, v in g.edges:
            arcs[u + offset].append((sym[a], v + offset))
            arcs[v + offset].append((sym[a] + 1, u + offset))
    colour = _refine(arcs)
    if sorted(colour[:n]) != sorted(colour[n:]):  # per-class counts differ
        return IsomorphismResult(False, None)
    of_colour: dict[int, list[int]] = {}
    for w in range(n, 2 * n):
        of_colour.setdefault(colour[w], []).append(w)

    arcs1 = arcs[:n]
    arc_set2 = {(w, tag, x) for w in range(n, 2 * n) for tag, x in arcs[w]}
    candidates = [of_colour[colour[v]] for v in range(n)]
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    mapping: list[Optional[int]] = [None] * n  # g1 vertex -> union vertex
    used = [False] * (2 * n)

    def consistent(v: int, w: int) -> bool:
        for tag, x in arcs1[v]:
            mx = w if x == v else mapping[x]
            if mx is not None and (w, tag, mx) not in arc_set2:
                return False
        return True

    # Depth-first search with an explicit stack: tried[pos] counts the
    # candidates of order[pos] already tried under the current prefix.
    tried = [0] * n
    pos = 0
    while 0 <= pos < n:
        v = order[pos]
        if mapping[v] is not None:  # back from a dead end: undo v's choice
            used[mapping[v]] = False
            mapping[v] = None
        cands = candidates[v]
        k = tried[pos]
        while k < len(cands) and (used[cands[k]] or not consistent(v, cands[k])):
            k += 1
        if k == len(cands):
            tried[pos] = 0
            pos -= 1
            continue
        mapping[v] = cands[k]
        used[cands[k]] = True
        tried[pos] = k + 1
        pos += 1
    if pos < 0:
        return IsomorphismResult(False, None)
    final = tuple(mapping)  # type: ignore[arg-type]
    image = {(final[v], tag, final[x]) for v in range(n) for tag, x in arcs1[v]}
    if image != arc_set2:
        return IsomorphismResult(False, None)
    return IsomorphismResult(True, tuple(w - n for w in final))
