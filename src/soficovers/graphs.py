"""Labeled directed multigraphs and the structural checks the covers rely on.

A graph here is a finite directed multigraph whose edges carry symbols from
a finite alphabet.  Vertices and symbols are kept in load order and all
operations iterate in that order, so every construction in this package is
deterministic for a given input file.

Internally vertices and symbols are integer indices; the string names only
matter at the boundaries (files, reports, DOT output).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple, Optional, TypeVar

from .errors import EmptyShiftError, GraphFormatError, NotRightResolvingError

Edge = tuple[int, int, int]  # (source vertex, symbol, target vertex)
T = TypeVar("T")
S = TypeVar("S")


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
        k = _first_repeat(self.edges)
        if k is not None:
            u, a, v = self.edges[k]
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
        k = _first_repeat(names)
        if k is not None:
            raise GraphFormatError(f"two edges share the name {names[k]!r}")
        return names


def kept(g: LabeledGraph, key: str, build: Callable[[LabeledGraph], T]) -> T:
    """``build(g)``, computed on the first call for ``key`` and kept on g.

    The value goes into the graph's instance dict, as ``LabeledGraph.index``
    does, so it lives as long as the graph, and equality, hashing and
    ``repr`` ignore it.  A build that raises keeps nothing, so every call
    raises again.  A kept value must not refer to g, so that a graph is
    still freed by reference counting alone.
    """
    try:
        return g.__dict__[key]
    except KeyError:
        value = g.__dict__[key] = build(g)
        return value


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
    sym_index = dict(zip(symbols, range(len(symbols))))
    ver_index = dict(zip(names, range(len(names))))
    if len(sym_index) != len(symbols):
        raise GraphFormatError("alphabet contains duplicate symbols")
    if len(ver_index) != len(names):
        raise GraphFormatError("vertex list contains duplicate names")
    if not symbols:
        raise GraphFormatError("alphabet is empty")
    if not names:
        raise GraphFormatError("vertex list is empty")
    triples: list[Edge] = []
    for rec in edges:
        if type(rec) is dict:
            try:
                edge = (ver_index[rec["from"]], sym_index[rec["label"]], ver_index[rec["to"]])
            except (KeyError, TypeError):  # a missing key, an unknown or unhashable name
                pass
            else:
                triples.append(edge)
                continue
        try:
            triples.append(_checked_triple(rec, sym_index, ver_index))
        except GraphFormatError as exc:
            _graph_of(symbols, names, triples)  # a repeat before this record is reported first
            raise GraphFormatError(f"edges[{len(triples)}]: {exc}") from None
    return _graph_of(symbols, names, triples)


def _checked_triple(
    rec: object, sym_index: Mapping[str, int], ver_index: Mapping[str, int]
) -> Edge:
    """The triple of an edge record, checked step by step: the record is a
    mapping; then ``from``, ``label`` and ``to`` in turn are present and
    strings; then the vertices and the symbol exist.  The first failing
    check raises.  :func:`build_graph` reads a plain dict by lookup and
    comes here only for other mappings and for records that fail."""
    if not isinstance(rec, Mapping):
        raise GraphFormatError("edge record must be a mapping")
    for key in ("from", "label", "to"):
        if key not in rec:
            raise GraphFormatError(f"missing key {key!r}")
        if not isinstance(rec[key], str):
            raise GraphFormatError(f"{key!r} must be a string, got {rec[key]!r}")
    src, lab, dst = rec["from"], rec["label"], rec["to"]
    if src not in ver_index:
        raise GraphFormatError(f"unknown vertex {src!r}")
    if dst not in ver_index:
        raise GraphFormatError(f"unknown vertex {dst!r}")
    if lab not in sym_index:
        raise GraphFormatError(f"unknown symbol {lab!r}")
    return (ver_index[src], sym_index[lab], ver_index[dst])


def _graph_of(
    symbols: tuple[str, ...], names: tuple[str, ...], triples: list[Edge]
) -> LabeledGraph:
    """The graph of checked edge records; a repeated edge raises, naming
    the position of the first record that repeats an earlier one."""
    try:
        return LabeledGraph(symbols, names, tuple(triples))
    except GraphFormatError as exc:
        raise GraphFormatError(f"edges[{_first_repeat(triples)}]: {exc}") from None


def _first_repeat(items: Sequence[Hashable]) -> Optional[int]:
    """The position of the first item equal to an earlier one, or None."""
    if len(set(items)) == len(items):
        return None
    seen: set = set()
    for k, item in enumerate(items):
        if item in seen:
            return k
        seen.add(item)
    return None


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
    """A graph is right-resolving when no vertex emits a symbol twice.

    The report is kept on the graph (see :func:`kept`).
    """
    return kept(g, "_resolving_report", _resolving_report)


def _resolving_report(g: LabeledGraph) -> ResolvingReport:
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


def lyndon_words(
    max_len: int, start: S, moves: Callable[[S, int], Sequence[tuple[int, S]]]
) -> Iterator[tuple[int, ...]]:
    """Lyndon words of length 1..max_len whose walk from ``start`` never
    dies, in lexicographic order.

    ``moves(state, least)`` lists the letters b >= least that continue a
    walk at ``state``, each with the state after it, in increasing letter
    order.  Prefixes are generated as prenecklaces (Fredricksen, Kessler &
    Maiorana): a prefix of length t whose longest Lyndon prefix has length
    p extends only by letters b >= word[t - p], keeping p when b is that
    letter and making the whole prefix Lyndon otherwise, and the prefix is
    a Lyndon word exactly when p == t.  A prefix with no moves is dropped
    with all its extensions.  The depth-first search keeps an explicit
    stack, so max_len is not limited by the recursion depth.
    """
    if max_len <= 0:
        return
    word: list[int] = []
    stack = [(0, b, 1, after) for b, after in reversed(moves(start, 0))]
    while stack:
        t, b, p, state = stack.pop()
        del word[t:]
        word.append(b)
        t += 1
        if p == t:
            yield tuple(word)
        if t < max_len:
            least = word[t - p]
            for c, after in reversed(moves(state, least)):
                stack.append((t, c, p if c == least else t + 1, after))


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


def path_window(g: LabeledGraph, edge_indices: Sequence[int]) -> tuple[int, ...]:
    """The edge indices as a window, position 0 at the first edge,
    checking that consecutive edges compose."""
    for i in range(len(edge_indices) - 1):
        if g.edges[edge_indices[i]][2] != g.edges[edge_indices[i + 1]][0]:
            raise GraphFormatError(
                f"edges at offsets {i} and {i + 1} do not compose"
            )
    return tuple(edge_indices)


def window_labels(g: LabeledGraph, w: Sequence[int]) -> tuple[int, ...]:
    """Label word of an edge-index window, index-aligned with the input."""
    return tuple(g.edges[k][1] for k in w)


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


def normalize_periodic(word: Sequence[int]) -> PeriodicWord:
    return PeriodicWord(least_rotation(primitive_root(tuple(word))))
