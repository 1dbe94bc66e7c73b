"""Component structure, follower sets, periodic words, and isomorphism.

Follower sets are the label sequences of right-infinite paths out of a
vertex.  On an essential graph they are determined by the finite path
labels, so partition refinement and the pair containment search below
are exact, not approximations.  Two refinement routines split vertex
classes by the edges into a splitter class.  On a right-resolving graph a
vertex has at most one edge of each symbol, so it has 0 or 1 of them into
a splitter: the follower classes come from Hopcroft's minimization on the
predecessor masks, where a split is a mask intersection
(:func:`_split_classes`).  A graph keeps its follower partition and
follower quotient, and containment is searched on the quotient.

Isomorphism takes one of two routes.  Between right-resolving graphs the
same splitting, run on their disjoint union, gives the follower classes
the two share, and the image of one vertex forces the images of all the
vertices it reaches (:func:`_forced_isomorphism`).  Otherwise the
colouring refines by out- and in-edges, and a vertex can have several of
one symbol into one class, so it counts them (:func:`_refine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import UnrealizableWordError
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    bits,
    kept,
    lyndon_words,
    mask_image,
    require_essential,
    require_right_resolving,
)


@dataclass(frozen=True)
class ComponentInfo:
    """Irreducible components (SCCs containing at least one edge) of a graph.

    ``component_of[v]`` is the component index of vertex v, or None for
    vertices on no cycle.  A component is a source when no edge enters it
    from outside.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[Optional[int], ...]
    is_source: tuple[bool, ...]


def components_and_sources(g: LabeledGraph) -> ComponentInfo:
    """Tarjan decomposition keeping only SCCs that contain an edge.

    Visit numbers (``index_of``, -1 before the visit), low links and stack
    flags are lists indexed by vertex; ``work`` holds the depth-first path,
    each vertex with an iterator over its remaining successors."""
    n = len(g.vertices)
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, _, v in g.edges:
        succ[u].append(v)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index_of[root] >= 0:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if index_of[w] < 0:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
            else:
                work.pop()
                if low[v] == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]

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
    return ComponentInfo(
        tuple(tuple(c) for c in kept), tuple(component_of), tuple(is_source)
    )


def _refine(
    adjacency: Sequence[Sequence[tuple[int, int]]], half: int = 0
) -> Optional[list[int]]:
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
    Ids are not canonical; only the partition is.  Its one caller is
    :func:`_counting_isomorphism`, for inputs that are not right-resolving;
    between right-resolving graphs the follower classes need no counts
    (:func:`_split_classes`).

    A nonzero ``half`` marks ``adjacency`` as the disjoint union of two
    graphs of ``half`` vertices each, the first graph's vertices first.
    Then refinement stops, returning None, as soon as it makes a class
    with unequal numbers of vertices from the two graphs.  The stop is
    sound both ways:

    - Non-isomorphic graphs.  The final partition refines every earlier
      one, so an unbalanced class contains an unbalanced final class,
      and no isomorphism maps each final class onto itself.
    - Isomorphic graphs.  An isomorphism that swaps the two halves maps
      every class onto itself, so every class stays balanced.  The stop
      never fires, and the partition and its ids are those of the full
      refinement.

    Only new pieces are checked.  The starting class is balanced, and the
    piece that keeps an old id is a balanced class minus balanced pieces.
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
                    first = 0  # vertices of the first graph
                    for v in group:
                        colour[v] = new
                        if v < half:
                            first += 1
                    if half and 2 * first != len(group):
                        return None
                    todo.append(new)
    return colour


def follower_partition(g: LabeledGraph) -> tuple[frozenset[int], ...]:
    """Group vertices by equal follower set: the coarsest partition in
    which every vertex of a class has an out-edge of each symbol into the
    same class.

    Needs an essential right-resolving graph.  Classes are ordered by
    their smallest vertex.  The partition is kept on the graph
    (:func:`graphs.kept`).
    """
    return kept(g, "_follower_partition", _follower_partition)


def _follower_partition(g: LabeledGraph) -> tuple[frozenset[int], ...]:
    """The classes of :func:`_split_classes` on the predecessor masks,
    listed by smallest vertex.

    The graph is a partial automaton with every state accepting, so the
    follower classes are its minimal states.
    """
    require_essential(g)
    require_right_resolving(g)
    blocks: dict[int, list[int]] = {}
    for v, c in enumerate(_split_classes(g.index.pred, len(g.vertices))):
        blocks.setdefault(c, []).append(v)
    return tuple(map(frozenset, blocks.values()))


def _split_classes(
    pred: Sequence[Sequence[int]], n: int, half: int = 0
) -> Optional[list[int]]:
    """Hopcroft's minimization (1971) on vertex masks, as a class id per
    vertex: the coarsest partition in which every vertex of a class has an
    edge of each symbol into the same class, or none.

    ``pred[a][v]`` is the mask of the sources of the a-edges into v, and
    no vertex has two edges of one symbol.  From one class, all n
    vertices, pop a splitter S and take, per symbol a, the vertices X with
    an a-edge into S; every class C that X cuts splits into ``C & X`` and
    ``C & ~X``.  A vertex has 0 or 1 a-edges into S, so a mask
    intersection is the whole split.  For the same reason the
    a-predecessors of C minus a piece are those of C minus those of the
    piece, missing edges included, so only the smaller piece is queued.
    The larger keeps C's id and stays queued if C was.  Ids are not
    canonical; only the partition is.

    A nonzero ``half`` marks the vertices as the disjoint union of two
    graphs of ``half`` vertices each, the first graph's first.  Then the
    splitting stops, returning None, at the first new piece with unequal
    numbers of vertices from the two graphs.  The stop is sound for the
    reasons :func:`_refine` gives: an isomorphism maps every class onto
    itself, and the piece that keeps an old id is a balanced class minus
    a balanced piece.
    """
    classes = [(1 << n) - 1]
    members: list[Optional[list[int]]] = [list(range(n))]  # None once split
    colour = [0] * n
    todo = [0]
    first = (1 << half) - 1  # the first graph's vertices
    while todo and len(classes) < n:
        popped = todo.pop()
        splitter = members[popped]
        if splitter is None:
            splitter = members[popped] = bits(classes[popped])
        for rows in pred:
            # Distinct vertices have disjoint a-predecessors: the sum is the union.
            hit = sum(map(rows.__getitem__, splitter))
            rest = hit
            while rest:
                c = colour[(rest & -rest).bit_length() - 1]
                whole = classes[c]
                rest &= ~whole
                inside = whole & hit
                if inside == whole:
                    continue
                small, large = inside, whole ^ inside
                if small.bit_count() > large.bit_count():
                    small, large = large, small
                if half and 2 * (small & first).bit_count() != small.bit_count():
                    return None
                new = len(classes)
                classes[c] = large
                classes.append(small)
                members[c] = None
                moved = bits(small)
                members.append(moved)
                todo.append(new)
                for v in moved:
                    colour[v] = new
    return colour


def is_follower_separated(g: LabeledGraph) -> bool:
    return all(len(c) == 1 for c in follower_partition(g))


@dataclass(frozen=True)
class CoverBundle:
    """A graph merged by equal follower sets.

    ``factor_vertex[v]`` is the class of vertex v, numbered in
    :func:`follower_partition` order, and ``classes[c]`` lists the vertices
    of class c in order.  ``cover`` has one vertex per class, named after
    its smallest member, and one edge per distinct projected edge
    ``(factor_vertex[u], a, factor_vertex[v])``, in order of first
    appearance; ``factor_edge[k]`` is the cover edge under edge k.
    """

    cover: LabeledGraph
    factor_vertex: tuple[int, ...]
    factor_edge: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


def follower_quotient(g: LabeledGraph) -> CoverBundle:
    """The follower quotient of an essential right-resolving graph, kept on
    the graph (:func:`graphs.kept`).

    Each vertex has the follower set of its class, so the cover presents
    the same shift; it is right-resolving and follower-separated
    (``covers.merged_graph`` asserts both).
    """
    return kept(g, "_follower_quotient", _follower_quotient)


def _follower_quotient(g: LabeledGraph) -> CoverBundle:
    partition = follower_partition(g)
    factor = [0] * len(g.vertices)
    for c, block in enumerate(partition):
        for v in block:
            factor[v] = c
    edges: dict[tuple[int, int, int], int] = {}
    factor_edge = tuple(
        edges.setdefault((factor[u], a, factor[v]), len(edges)) for u, a, v in g.edges
    )
    names = tuple(g.vertices[min(block)] for block in partition)
    return CoverBundle(
        LabeledGraph(g.symbols, names, tuple(edges)),
        tuple(factor),
        factor_edge,
        tuple(tuple(sorted(block)) for block in partition),
    )


def follower_contains(g: LabeledGraph, u: int, v: int) -> bool:
    """Whether every label sequence out of ``u`` also occurs out of ``v``.

    Follower sets survive the follower merge, so the search runs on
    :func:`follower_quotient`: two vertices of one class contain each
    other, and otherwise it searches pairs (class on the u side, class on
    the v side).  The quotient is right-resolving, so the v side stays
    one class; containment fails exactly when some reachable pair has an
    edge on the u side whose symbol the v side cannot emit.  Finite-word
    containment suffices on an essential graph.  Raises IndexError for a
    vertex outside ``range(len(g.vertices))``.
    """
    n = len(g.vertices)
    for w in (u, v):
        if not 0 <= w < n:
            raise IndexError(f"vertex {w!r} out of range: the graph has vertices 0..{n - 1}")
    quotient = follower_quotient(g)
    factor, cover = quotient.factor_vertex, quotient.cover
    start = (factor[u], factor[v])
    if start[0] == start[1]:
        return True
    edges, edge_at, out = cover.edges, cover.index.edge_at, cover.index.out
    seen = {start}
    todo = [start]
    while todo:
        x, y = todo.pop()
        for k in out[x]:
            _, a, x1 = edges[k]
            j = edge_at.get((y, a))
            if j is None:
                return False
            state = (x1, edges[j][2])
            if state[0] != state[1] and state not in seen:
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
    realization, in primitive least-rotation form, without duplicates,
    shortest first and then in lexicographic order.

    The primitive least rotations are the Lyndon words, which
    :func:`graphs.lyndon_words` generates directly.  Each prefix walks its
    set of path ends from the full vertex set, so a prefix that no path
    carries is dropped with all its extensions; a realizable word is a
    path word, so none is lost.  A Lyndon word repeats forever in the
    graph exactly when its past set at phase 0 is nonempty.
    """
    require_essential(g)
    rows = g.index.rows

    def moves(ends: int, least: int) -> list[tuple[int, int]]:
        return [
            (a, step)
            for a in range(least, len(rows))
            if (step := mask_image(rows[a], ends))
        ]

    full = (1 << len(g.vertices)) - 1
    found = [w for w in lyndon_words(max_period, full, moves) if _greatest_cycle(rows, w)[0]]
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


def _label_counts(g: LabeledGraph) -> dict[str, int]:
    """Edges per symbol name, for the symbols that label an edge."""
    counts = [0] * len(g.symbols)
    for _, a, _ in g.edges:
        counts[a] += 1
    return {name: k for name, k in zip(g.symbols, counts) if k}


def graphs_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> IsomorphismResult:
    """Label-preserving digraph isomorphism, by one of two routes.

    Labels are matched by symbol name, so the two graphs may list their
    alphabets in different orders, and a symbol that labels no edge does
    not count.  Graphs that differ in their vertex or edge counts, or in
    how many edges carry some symbol, are rejected before either route.
    When neither graph has a vertex with two edges of one symbol,
    :func:`_forced_isomorphism` decides by follower classes and forced
    edges; otherwise :func:`_counting_isomorphism` decides by colour
    refinement and backtracking over single vertices.  Both colour the
    disjoint union of the two graphs, g2's vertices after g1's.  Where
    several isomorphisms exist, each route returns the first its search
    meets, so the two may return different ones.
    """
    n = len(g1.vertices)
    if n != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return IsomorphismResult(False, None)
    if _label_counts(g1) != _label_counts(g2):
        return IsomorphismResult(False, None)
    shared = sorted(set(g1.symbols) | set(g2.symbols))
    ranks = [[shared.index(s) for s in g.symbols] for g in (g1, g2)]
    forced = _forced_isomorphism(g1, g2, ranks, len(shared))
    if forced is not None:
        return forced
    return _counting_isomorphism(g1, g2, ranks)


def _forced_isomorphism(
    g1: LabeledGraph, g2: LabeledGraph, ranks: Sequence[Sequence[int]], width: int
) -> Optional[IsomorphismResult]:
    """Isomorphism of two right-resolving graphs with equal vertex counts
    and label counts, or None when some vertex of either emits a symbol
    twice.  ``ranks[i][a]`` is the shared rank of symbol a of graph i,
    and ``width`` the number of shared symbols.

    1. :func:`_split_classes` takes the follower classes of the disjoint
       union, stopping at the first class with unequal numbers of
       vertices from the two graphs.  An isomorphism preserves follower
       sets, so it maps each vertex into its class.
    2. Mapping a root v to a g2 vertex w of its class forces the image of
       every vertex reachable from v, since a vertex has at most one edge
       of each symbol.  The propagation follows g1's out-edges and fails
       at the first vertex with two images, with an image that another
       vertex holds, or with an image of another in-degree.  Two vertices
       of one class emit the same symbols into equal classes, so no edge
       is missing and every image stays in its class.
    3. The search backtracks over roots only, the vertices that no
       earlier propagation reached.  A bijection that carries every
       out-edge of g1 onto an edge of g2 is an isomorphism: the images of
       distinct edges are distinct, and both graphs have as many edges.
       So the in-degrees only prune the search, and let it settle each
       component once, as below.

    g1 is matched one weak component at a time.  Within one, the next
    root is an unmapped vertex u with an edge ``u -a-> x`` into the mapped
    ones, taken from the earliest mapped x, and u's candidates are the
    a-predecessors of x's image in u's class.  A component's first root is
    the first unmapped vertex by class size, then index, tried against the
    free vertices of its class in index order.  Once a component is
    mapped, its image is a whole component of g2 with the same edges, as
    every in-degree agrees, so it is isomorphic to the component.  Two
    graphs with one isomorphic component each are isomorphic exactly when
    the rest of them are, so a component is never revisited, and a first
    root with no candidate left means no isomorphism.  The lowest free
    vertex of each class is tracked, so many components of one shape take
    one try each, not one per mapped copy.
    """
    n = len(g1.vertices)
    target: dict[int, int] = {}  # union vertex * width + symbol rank -> target
    pred = [[0] * (2 * n) for _ in range(width)]
    indeg = [0] * (2 * n)
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # g1's (rank, target)
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # g1's (rank, source)
    rank = ranks[0]
    for u, a, v in g1.edges:
        s = rank[a]
        target[u * width + s] = v
        pred[s][v] |= 1 << u
        indeg[v] += 1
        out[u].append((s, v))
        into[v].append((s, u))
    rank = ranks[1]
    for u, a, v in g2.edges:
        s, u, v = rank[a], u + n, v + n
        target[u * width + s] = v
        pred[s][v] |= 1 << u
        indeg[v] += 1
    if len(target) != len(g1.edges) + len(g2.edges):  # a repeated (vertex, symbol) slot
        return None
    colour = _split_classes(pred, 2 * n, half=n)
    if colour is None:  # some class holds more vertices of one graph
        return IsomorphismResult(False, None)
    members: dict[int, list[int]] = {}  # class -> its g2 vertices, ascending
    for w in range(n, 2 * n):
        members.setdefault(colour[w], []).append(w)
    size = [len(members[colour[v]]) for v in range(n)]
    order = sorted(range(n), key=size.__getitem__)
    lowest = dict.fromkeys(members, 0)  # every vertex before it is used
    image = [-1] * n  # g1 vertex -> union vertex
    used = [False] * (2 * n)
    trail: list[int] = []  # g1 vertices in the order they were mapped

    def undo(mark: int) -> None:
        for x in trail[mark:]:
            used[image[x]] = False
            image[x] = -1
        del trail[mark:]

    def place(root: int, w: int) -> bool:
        """Map root to w and propagate along out-edges; undone on failure."""
        if used[w] or indeg[root] != indeg[w]:
            return False
        mark = k = len(trail)
        image[root] = w
        used[w] = True
        trail.append(root)
        while k < len(trail):
            x = trail[k]
            k += 1
            y = image[x]
            for s, x1 in out[x]:
                y1 = target[y * width + s]
                m = image[x1]
                if m < 0 and not used[y1] and indeg[x1] == indeg[y1]:
                    image[x1] = y1
                    used[y1] = True
                    trail.append(x1)
                elif m != y1:
                    undo(mark)
                    return False
        return True

    scan = 0
    while True:
        while scan < n and image[order[scan]] >= 0:
            scan += 1
        if scan == n:
            return IsomorphismResult(True, tuple(w - n for w in image))
        # One weak component, depth-first over its roots.  A frame holds a
        # root, the trail length before it, its candidates, the next
        # position among them and the frontier position when it was
        # chosen.  Which vertices the earlier roots reach does not depend
        # on their images, so neither does that position.
        c = colour[order[scan]]
        k = lowest[c]
        while used[members[c][k]]:  # the class has a free vertex: it has an unmapped one
            k += 1
        lowest[c] = k
        front = len(trail)  # every vertex before trail[front] has its sources mapped
        frames = [[order[scan], front, members[c], k, front]]
        while frames:
            frame = frames[-1]
            root, _, cands, k, _ = frame
            while k < len(cands) and not place(root, cands[k]):
                k += 1
            if k == len(cands):
                frames.pop()
                front = frame[4]
                if frames:
                    undo(frames[-1][1])
                continue
            frame[3] = k + 1
            u = -1
            while u < 0 and front < len(trail):
                x = trail[front]
                for s, u in into[x]:
                    if image[u] < 0:
                        break
                else:
                    u = -1
                    front += 1
            if u < 0:
                break  # the component is mapped
            cu = colour[u]
            cands = [y for y in bits(pred[s][image[x]]) if colour[y] == cu]
            frames.append([u, len(trail), cands, 0, front])
        if not frames:
            return IsomorphismResult(False, None)


def _counting_isomorphism(
    g1: LabeledGraph, g2: LabeledGraph, ranks: Sequence[Sequence[int]]
) -> IsomorphismResult:
    """Isomorphism of two graphs with equal vertex counts and label counts,
    at least one of which is not right-resolving.

    One :func:`_refine` call on the disjoint union colours both graphs by
    their out- and in-arcs with shared class ids, and stops at the first
    class that holds more vertices of one graph.  Otherwise a vertex is
    only tried against g2's vertices of its class, in vertex order; an
    isomorphism maps every vertex into its class.  Refinement counts each
    arc O(log n) times; the backtracking over single vertices can still
    take exponential time where refinement leaves large classes.
    """
    n = len(g1.vertices)
    # Out-edges tagged 2 * symbol rank, in-edges 2 * symbol rank + 1; the
    # union's vertex n + w is g2's vertex w.
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for g, rank, offset in ((g1, ranks[0], 0), (g2, ranks[1], n)):
        for u, a, v in g.edges:
            arcs[u + offset].append((2 * rank[a], v + offset))
            arcs[v + offset].append((2 * rank[a] + 1, u + offset))
    colour = _refine(arcs, half=n)
    if colour is None:  # some class holds more vertices of one graph
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
