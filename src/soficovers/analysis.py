"""Component structure, follower sets, periodic words, and isomorphism.

Follower sets are the label sequences of right-infinite paths out of a
vertex.  On an essential graph they are determined by the finite path
labels, so partition refinement and the pair-set containment search below
are exact, not approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import UnrealizableWordError
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    mask_image,
    normalize_periodic,
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


def follower_partition(g: LabeledGraph) -> tuple[frozenset[int], ...]:
    """Group vertices by equal follower set, via Moore-style refinement.

    Needs an essential right-resolving graph.  Classes are ordered by
    their smallest vertex.
    """
    require_essential(g)
    require_right_resolving(g)
    n = len(g.vertices)
    moves = {v: sorted(g.edges[k][1:] for k in g.index.out[v]) for v in range(n)}
    out_labels = {v: frozenset(a for a, _ in moves[v]) for v in range(n)}
    block: dict[int, int] = {}
    keys = sorted(set(out_labels.values()), key=sorted)
    for v in range(n):
        block[v] = keys.index(out_labels[v])
    while True:
        signature = {
            v: (block[v], tuple((a, block[w]) for a, w in moves[v]))
            for v in range(n)
        }
        distinct = sorted(set(signature.values()))
        new_block = {v: distinct.index(signature[v]) for v in range(n)}
        if new_block == block:
            break
        block = new_block
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(block[v], []).append(v)
    ordered = sorted(classes.values(), key=lambda c: c[0])
    return tuple(frozenset(c) for c in ordered)


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
    phase 0 is nonempty.
    """
    require_essential(g)
    found: set[tuple[int, ...]] = set()
    for word in sorted(words_up_to(g, max_period)):
        canon = normalize_periodic(word).word
        if canon not in found and past_masks(g, canon)[0]:
            found.add(canon)
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
    alphabets in different orders.  Desk-scale instances only.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return IsomorphismResult(False, None)
    shared = sorted(set(g1.symbols) | set(g2.symbols))
    sym1 = {i: shared.index(s) for i, s in enumerate(g1.symbols)}
    sym2 = {i: shared.index(s) for i, s in enumerate(g2.symbols)}

    def colorize(g: LabeledGraph, sym: dict[int, int]) -> list[int]:
        n = len(g.vertices)
        color = [0] * n
        for _ in range(n + 1):
            sigs = []
            for v in range(n):
                outs = sorted(
                    (sym[a], color[w]) for u, a, w in g.edges if u == v
                )
                ins = sorted(
                    (sym[a], color[w]) for w, a, u in g.edges if u == v
                )
                sigs.append((color[v], tuple(outs), tuple(ins)))
            distinct = sorted(set(sigs))
            new_color = [distinct.index(s) for s in sigs]
            if new_color == color:
                break
            color = new_color
        return color

    c1, c2 = colorize(g1, sym1), colorize(g2, sym2)
    if sorted(c1) != sorted(c2):
        return IsomorphismResult(False, None)

    n = len(g1.vertices)
    edges2 = {(u, sym2[a], v) for u, a, v in g2.edges}
    candidates = [
        [w for w in range(n) if c2[w] == c1[v]] for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    mapping: list[Optional[int]] = [None] * n
    used = [False] * n

    def consistent(v: int, w: int) -> bool:
        for u, a, x in g1.edges:
            mu, mx = mapping[u], mapping[x]
            if u == v and mx is not None and (w, sym1[a], mx) not in edges2:
                return False
            if x == v and mu is not None and (mu, sym1[a], w) not in edges2:
                return False
            if u == v and x == v and (w, sym1[a], w) not in edges2:
                return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for w in candidates[v]:
            if used[w] or not consistent(v, w):
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(pos + 1):
                return True
            mapping[v] = None
            used[w] = False
        return False

    if not backtrack(0):
        return IsomorphismResult(False, None)
    final = tuple(mapping)  # type: ignore[arg-type]
    image = {(final[u], sym1[a], final[v]) for u, a, v in g1.edges}
    if image != edges2:
        return IsomorphismResult(False, None)
    return IsomorphismResult(True, final)
