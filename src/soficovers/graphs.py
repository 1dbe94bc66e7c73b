"""Labeled directed multigraphs and the structural checks the covers rely on.

A graph here is a finite directed multigraph whose edges carry symbols from
a finite alphabet.  Vertices and symbols are kept in load order and all
operations iterate in that order, so every construction in this package is
deterministic for a given input file.

Internally vertices and symbols are integer indices; the string names only
matter at the boundaries (files, reports, DOT output).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import EmptyShiftError, GraphFormatError, NotRightResolvingError

Edge = tuple[int, int, int]  # (source vertex, symbol, target vertex)


class GraphIndex(NamedTuple):
    """The edge tables of one graph, shared by every construction.

    ``rows[a][u]`` is the bitmask of the targets of ``a``-labeled edges
    leaving ``u``, and ``pred[a][v]`` the bitmask of the sources of
    ``a``-labeled edges entering ``v``; ``edge_at[(u, a)]`` is the index
    of the last edge leaving ``u`` with label ``a``, the only one on a
    right-resolving graph; ``out[u]`` lists the edges leaving ``u`` in
    edge order.  Read-only.
    """

    rows: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]
    edge_at: Mapping[tuple[int, int], int]
    out: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable labeled multigraph over index triples.

    ``edges[k] = (u, a, v)`` is an edge from vertex ``u`` to vertex ``v``
    labeled with symbol ``a``; all three are indices into ``vertices`` and
    ``symbols``.  A repeated triple raises GraphFormatError at construction,
    so an edge is identified by its triple.
    """

    symbols: tuple[str, ...]
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if len(set(self.edges)) < len(self.edges):
            u, a, v = next(e for k, e in enumerate(self.edges) if e in self.edges[:k])
            raise GraphFormatError(
                f"duplicate edge {self.vertices[u]!r} -{self.symbols[a]!r}-> {self.vertices[v]!r}"
            )

    @cached_property
    def index(self) -> GraphIndex:
        """Edge tables, built on first use; equality and hashing ignore them."""
        n = len(self.vertices)
        rows = [[0] * n for _ in self.symbols]
        pred = [[0] * n for _ in self.symbols]
        out: list[list[int]] = [[] for _ in range(n)]
        edge_at: dict[tuple[int, int], int] = {}
        for k, (u, a, v) in enumerate(self.edges):
            rows[a][u] |= 1 << v
            pred[a][v] |= 1 << u
            out[u].append(k)
            edge_at[(u, a)] = k
        return GraphIndex(
            tuple(map(tuple, rows)),
            tuple(map(tuple, pred)),
            MappingProxyType(edge_at),
            tuple(map(tuple, out)),
        )

    def symbol_index(self, name: str) -> int:
        return self.symbols.index(name)

    def vertex_index(self, name: str) -> int:
        return self.vertices.index(name)

    def edge_name(self, k: int) -> str:
        u, a, v = self.edges[k]
        return f"{self.vertices[u]}-{self.symbols[a]}->{self.vertices[v]}"

    def edge_names(self) -> tuple[str, ...]:
        """Every edge name, in edge order.

        Names are not escaped, so distinct edges can share one (``p-q -r-> s``
        and ``p -q-r-> s``); an edge alphabet needs one edge per name, so a
        repeat raises GraphFormatError.
        """
        names = tuple(self.edge_name(k) for k in range(len(self.edges)))
        if len(set(names)) < len(names):
            repeated = next(name for k, name in enumerate(names) if name in names[:k])
            raise GraphFormatError(f"two edges share the name {repeated!r}")
        return names

    def out_edges(self, v: int) -> tuple[int, ...]:
        return self.index.out[v]


def build_graph(data: Mapping) -> LabeledGraph:
    """Validate a mapping in the external graph format and build the graph.

    Expected shape::

        {"format": 1, "alphabet": [...], "vertices": [...],
         "edges": [{"from": ..., "label": ..., "to": ...}, ...]}

    Symbols, vertex names and edge fields must be strings, and ``format``
    the integer 1.  Raises GraphFormatError with the offending location on
    any violation.
    Essentiality is not required here; see :func:`essentialize`.
    """
    if not isinstance(data, Mapping):
        raise GraphFormatError("graph description must be a mapping")
    _format_one(data)
    alphabet = data.get("alphabet")
    vertices = data.get("vertices")
    edges = data.get("edges")
    if not isinstance(alphabet, Sequence) or isinstance(alphabet, (str, bytes)):
        raise GraphFormatError("'alphabet' must be a list of symbols")
    if not isinstance(vertices, Sequence) or isinstance(vertices, (str, bytes)):
        raise GraphFormatError("'vertices' must be a list of names")
    if not isinstance(edges, Sequence) or isinstance(edges, (str, bytes)):
        raise GraphFormatError("'edges' must be a list of records")
    symbols = _names(alphabet, "alphabet")
    names = _names(vertices, "vertices")
    if len(set(symbols)) != len(symbols):
        raise GraphFormatError("alphabet contains duplicate symbols")
    if len(set(names)) != len(names):
        raise GraphFormatError("vertex list contains duplicate names")
    if not symbols:
        raise GraphFormatError("alphabet is empty")
    if not names:
        raise GraphFormatError("vertex list is empty")
    sym_index = {s: i for i, s in enumerate(symbols)}
    ver_index = {v: i for i, v in enumerate(names)}
    triples: list[Edge] = []
    seen: set[Edge] = set()
    for pos, rec in enumerate(edges):
        where = f"edges[{pos}]"
        if not isinstance(rec, Mapping):
            raise GraphFormatError(f"{where}: edge record must be a mapping")
        for key in ("from", "label", "to"):
            if key not in rec:
                raise GraphFormatError(f"{where}: missing key {key!r}")
            if not isinstance(rec[key], str):
                raise GraphFormatError(
                    f"{where}: {key!r} must be a string, got {rec[key]!r}"
                )
        src, lab, dst = rec["from"], rec["label"], rec["to"]
        if src not in ver_index:
            raise GraphFormatError(f"{where}: unknown vertex {src!r}")
        if dst not in ver_index:
            raise GraphFormatError(f"{where}: unknown vertex {dst!r}")
        if lab not in sym_index:
            raise GraphFormatError(f"{where}: unknown symbol {lab!r}")
        triple = (ver_index[src], sym_index[lab], ver_index[dst])
        if triple in seen:
            raise GraphFormatError(f"{where}: duplicate edge {src!r} -{lab!r}-> {dst!r}")
        seen.add(triple)
        triples.append(triple)
    return LabeledGraph(symbols, names, tuple(triples))


def _format_one(data: Mapping, where: str = "") -> None:
    fmt = data.get("format", 1)
    if type(fmt) is not int or fmt != 1:
        raise GraphFormatError(f"{where}unsupported format {fmt!r}; expected 1")


def _names(items: Sequence, where: str) -> tuple[str, ...]:
    if not isinstance(items, Sequence) or isinstance(items, (str, bytes)):
        raise GraphFormatError(f"{where} must be a list of strings")
    for pos, item in enumerate(items):
        if not isinstance(item, str):
            raise GraphFormatError(f"{where}[{pos}] must be a string, got {item!r}")
    return tuple(items)


def graph_from_parts(
    symbols: Iterable[str], vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]
) -> LabeledGraph:
    """Convenience builder from (source, label, target) name triples."""
    return build_graph(
        {
            "alphabet": list(symbols),
            "vertices": list(vertices),
            "edges": [{"from": u, "label": a, "to": v} for u, a, v in edges],
        }
    )


def is_essential(g: LabeledGraph) -> bool:
    outs = {u for u, _, _ in g.edges}
    ins = {v for _, _, v in g.edges}
    return all(v in outs and v in ins for v in range(len(g.vertices)))


def trim(nodes: Iterable[Hashable], arcs: Iterable[tuple[Hashable, Hashable]]) -> set:
    """Bi-essential part of a digraph: the nodes left after repeatedly
    dropping every node with no outgoing or no incoming arc.

    ``arcs`` are (source, target) pairs between ``nodes``.  The survivors
    are the nodes on bi-infinite paths, so the order of removal does not
    matter; a worklist removes each node once and updates its neighbours'
    degrees.
    """
    alive = set(nodes)
    succ: dict = {x: [] for x in alive}
    pred: dict = {x: [] for x in alive}
    for x, y in arcs:
        succ[x].append(y)
        pred[y].append(x)
    outdeg = {x: len(ys) for x, ys in succ.items()}
    indeg = {x: len(ys) for x, ys in pred.items()}
    todo = [x for x in alive if not outdeg[x] or not indeg[x]]
    alive.difference_update(todo)
    while todo:
        x = todo.pop()
        for ends, degree in ((succ[x], indeg), (pred[x], outdeg)):
            for y in ends:
                if y in alive:
                    degree[y] -= 1
                    if not degree[y]:
                        alive.discard(y)
                        todo.append(y)
    return alive


def essentialize(g: LabeledGraph) -> LabeledGraph:
    """Iteratively drop vertices with no outgoing or no incoming edge.

    Vertex and edge order of the survivors is preserved.  Raises
    EmptyShiftError when nothing survives.
    """
    alive = trim(range(len(g.vertices)), [(u, v) for u, _, v in g.edges])
    if not alive:
        raise EmptyShiftError("no bi-infinite paths: every vertex was trimmed")
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    return LabeledGraph(
        g.symbols,
        tuple(g.vertices[v] for v in keep),
        tuple(
            (remap[u], a, remap[v])
            for u, a, v in g.edges
            if u in alive and v in alive
        ),
    )


def require_essential(g: LabeledGraph) -> None:
    if not is_essential(g):
        raise GraphFormatError("graph is not essential; essentialize it first")


@dataclass(frozen=True)
class ResolvingReport:
    """Outcome of the deterministic-labeling check with conflict witnesses."""

    ok: bool
    conflicts: tuple[tuple[int, int], ...]  # (vertex, symbol) with >= 2 edges


def check_right_resolving(g: LabeledGraph) -> ResolvingReport:
    """A graph is right-resolving when no vertex emits a symbol twice."""
    count: dict[tuple[int, int], int] = {}
    for u, a, _ in g.edges:
        count[(u, a)] = count.get((u, a), 0) + 1
    conflicts = tuple(sorted(k for k, n in count.items() if n > 1))
    return ResolvingReport(not conflicts, conflicts)


def require_right_resolving(g: LabeledGraph, what: str = "operation") -> None:
    rep = check_right_resolving(g)
    if not rep.ok:
        u, a = rep.conflicts[0]
        raise NotRightResolvingError(
            f"{what} needs a right-resolving graph; vertex "
            f"{g.vertices[u]!r} emits {g.symbols[a]!r} more than once"
        )


def edge_lookup(g: LabeledGraph, what: str = "operation") -> Mapping[tuple[int, int], int]:
    """(vertex, symbol) -> edge index, for right-resolving graphs.

    ``what`` names the operation in the error raised otherwise.
    """
    require_right_resolving(g, what)
    return g.index.edge_at


def transpose(g: LabeledGraph) -> LabeledGraph:
    return LabeledGraph(g.symbols, g.vertices, tuple((v, a, u) for u, a, v in g.edges))


def words_up_to(g: LabeledGraph, max_len: int) -> set[tuple[int, ...]]:
    """All label words of paths of length 1..max_len, as symbol-index tuples.

    The graph must be essential, so these are exactly the finite words of
    the presented shift.  Enumeration tracks the endpoint set per word,
    which keeps it polynomial in the number of distinct words.
    """
    require_essential(g)
    words: set[tuple[int, ...]] = set()
    frontier: dict[tuple[int, ...], int] = {(): (1 << len(g.vertices)) - 1}
    for _ in range(max_len):
        nxt: dict[tuple[int, ...], int] = {}
        for word, ends in frontier.items():
            members = bits(ends)
            for a, rows in enumerate(g.index.rows):
                step = 0
                for v in members:
                    step |= rows[v]
                if step:
                    nxt[word + (a,)] = step
        words.update(nxt)
        frontier = nxt
        if not frontier:
            break
    return words


def paths_of_length(g: LabeledGraph, length: int) -> Iterator[tuple[int, ...]]:
    """All edge-index paths of the given length, in lexicographic edge order."""
    succ = g.index.out
    if length <= 0:
        return
    stack: list[tuple[tuple[int, ...], int]] = [
        ((k,), g.edges[k][2]) for k in reversed(range(len(g.edges)))
    ]
    while stack:
        path, at = stack.pop()
        if len(path) == length:
            yield path
            continue
        for k in reversed(succ[at]):
            stack.append((path + (k,), g.edges[k][2]))


def bits(mask: int) -> list[int]:
    """Members of a vertex bitmask, in increasing order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def mask_image(rows: Sequence[int], mask: int) -> int:
    """Union of ``rows[v]`` over the members v of a vertex bitmask: one
    subset step along the symbol whose rows these are."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def format_members(g: LabeledGraph, mask: int) -> str:
    """Canonical name of a vertex subset, e.g. ``{a,c}``."""
    return "{" + ",".join(g.vertices[v] for v in bits(mask)) + "}"


@dataclass(frozen=True)
class Window:
    """A finite configuration: consecutive items indexed from ``start``.

    Items may be symbols, edge indices, or edge names depending on context;
    paths additionally satisfy the composition invariant checked where they
    are constructed.
    """

    start: int
    items: tuple

    @property
    def end(self) -> int:
        """Index of the last item (inclusive)."""
        return self.start + len(self.items) - 1

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int):
        if not self.start <= index <= self.end:
            raise IndexError(f"index {index} outside [{self.start}, {self.end}]")
        return self.items[index - self.start]

    def segment(self, lo: int, hi: int) -> "Window":
        """Sub-window on [lo, hi] inclusive."""
        if not (self.start <= lo and hi <= self.end and lo <= hi):
            raise IndexError(f"[{lo}, {hi}] outside [{self.start}, {self.end}]")
        return Window(lo, self.items[lo - self.start : hi - self.start + 1])

    def shifted(self, offset: int) -> "Window":
        return Window(self.start + offset, self.items)


def path_window(g: LabeledGraph, edge_indices: Sequence[int], start: int = 0) -> Window:
    """Build a Window of edge indices, checking that consecutive edges compose."""
    for i in range(len(edge_indices) - 1):
        if g.edges[edge_indices[i]][2] != g.edges[edge_indices[i + 1]][0]:
            raise GraphFormatError(
                f"edges at offsets {i} and {i + 1} do not compose"
            )
    return Window(start, tuple(edge_indices))


def window_labels(g: LabeledGraph, w: Window) -> Window:
    """Label word of an edge-index window, index-aligned with the input."""
    return Window(w.start, tuple(g.edges[k][1] for k in w.items))


def primitive_root(word: tuple) -> tuple:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[: d] * (n // d):
            return word[:d]
    return word


def least_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


@dataclass(frozen=True)
class PeriodicWord:
    """A periodic bi-infinite word, stored as its primitive least rotation."""

    word: tuple[int, ...]

    def __post_init__(self):
        if not self.word:
            raise ValueError("periodic word needs at least one symbol")
        if not all(isinstance(s, int) for s in self.word):
            raise ValueError("periodic words hold symbol indices, not names")
        if self.word != least_rotation(primitive_root(self.word)):
            raise ValueError("word is not in primitive least-rotation form")

    @property
    def period(self) -> int:
        return len(self.word)

    def at(self, index: int) -> int:
        return self.word[index % len(self.word)]

    def rotation_from(self, index: int) -> tuple[int, ...]:
        k = index % len(self.word)
        return self.word[k:] + self.word[:k]


def normalize_periodic(word: Sequence[int]) -> PeriodicWord:
    return PeriodicWord(least_rotation(primitive_root(tuple(word))))
