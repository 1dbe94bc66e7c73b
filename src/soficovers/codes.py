"""Sliding block codes, commuting squares, and conjugacy lifting.

A conjugacy between edge shifts that respects labels induces a conjugacy
between the stable cores of the two presentations.  The induced code is
assembled from two ingredients:

* on windows that stay inside one irreducible component of the core, the
  member paths of the window are mapped one by one and reassembled;
* across component boundaries the image is pinned at both ends by long
  component intervals and filled in between by deterministic
  label-following in the right-resolving target core (:func:`fill_gap`).

The block radius is chosen so that every block long enough contains the
component intervals the gap filler needs.  Verification of the induced
code is necessarily bounded: identities are checked on periodic points,
on structured windows that cross components, and on seeded random walks,
never on all windows of the shift.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import (
    GraphFormatError,
    LabelPathDiedError,
    VerificationError,
)
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    Window,
    edge_lookup,
    least_rotation,
    paths_of_length,
    primitive_root,
    require_essential,
    require_right_resolving,
)
from .analysis import ComponentInfo, components_and_sources, periodic_points
from .covers import (
    CoverBundle,
    StableCore,
    merged_graph,
    past_set_ray,
    stable_core,
)
from .relations import DEFAULT_MONOID_BUDGET, stabilized_range, word_relation

Block = tuple[str, ...]
RuleMap = Union[Mapping[Block, str], Callable[[Block], str]]


class CachedRule:
    """A rule computed on edge indices, memoized, with a name-level view.

    ``at`` maps an index block to an index and remembers every block it
    has evaluated; calling the rule does the same on edge names.
    ``cache`` lists every evaluated block in names, whichever way it was
    asked.
    """

    def __init__(
        self,
        fn: Callable[[tuple[int, ...]], int],
        names_in: Sequence[str],
        names_out: Sequence[str],
    ):
        self.fn = fn
        self.memo: dict[tuple[int, ...], int] = {}
        self.names_in = names_in
        self.names_out = names_out
        self.index_in = {name: k for k, name in enumerate(names_in)}

    def at(self, block: tuple[int, ...]) -> int:
        if block not in self.memo:
            self.memo[block] = self.fn(block)
        return self.memo[block]

    def __call__(self, block: Block) -> str:
        return self.names_out[self.at(tuple(self.index_in[name] for name in block))]

    @property
    def cache(self) -> dict[Block, str]:
        return {
            tuple(self.names_in[k] for k in block): self.names_out[out]
            for block, out in self.memo.items()
        }


@dataclass(frozen=True)
class SlidingBlockCode:
    """A block map: the output at index i is a function of the input on
    [i - radius, i + radius].

    ``rule`` is either a full table or a callable; tables are validated
    lazily, at application time.
    """

    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]
    radius: int
    rule: RuleMap

    def output_for(self, block: Block) -> str:
        if len(block) != 2 * self.radius + 1:
            raise GraphFormatError(
                f"rule expects blocks of length {2 * self.radius + 1}, "
                f"got {len(block)}"
            )
        if callable(self.rule):
            return self.rule(block)
        try:
            return self.rule[block]
        except KeyError:
            raise GraphFormatError(f"code has no rule for block {block!r}") from None


def apply_code(code: SlidingBlockCode, window: Window) -> Window:
    """Apply to a finite configuration of input symbols; the output lives on
    the input indices shrunk by the radius."""
    r = code.radius
    if len(window) < 2 * r + 1:
        raise GraphFormatError(
            f"window of length {len(window)} is too short for radius {r}"
        )
    items = tuple(
        code.output_for(tuple(window.items[t : t + 2 * r + 1]))
        for t in range(len(window) - 2 * r)
    )
    return Window(window.start + r, items)


def apply_code_cyclic(code: SlidingBlockCode, word: Sequence[str]) -> tuple[str, ...]:
    """Apply to a periodic point given by one period; output is phase-aligned
    with the input and has the same length (possibly non-primitive)."""
    n = len(word)
    r = code.radius
    out = []
    for k in range(n):
        block = tuple(word[(k - r + t) % n] for t in range(2 * r + 1))
        out.append(code.output_for(block))
    return tuple(out)


def rule_entries(code: SlidingBlockCode) -> tuple[tuple[Block, str], ...]:
    """The known rule entries, sorted; for callable rules this is only the
    evaluated cache."""
    if callable(code.rule):
        cache = getattr(code.rule, "cache", {})
        return tuple(sorted(cache.items()))
    return tuple(sorted(code.rule.items()))


@dataclass(frozen=True)
class ConjugacySquare:
    """A label-respecting conjugacy of edge shifts, with its inverse.

    ``edge_code`` maps bi-infinite edge sequences of ``graph_g`` to those
    of ``graph_h`` (alphabets are the edge names); ``label_code`` maps the
    presented shifts.  Reading labels after the edge code must agree with
    the label code after reading labels.
    """

    graph_g: LabeledGraph
    graph_h: LabeledGraph
    edge_code: SlidingBlockCode
    edge_code_inv: SlidingBlockCode
    label_code: SlidingBlockCode
    label_code_inv: SlidingBlockCode

    def max_radius(self) -> int:
        return max(
            self.edge_code.radius,
            self.edge_code_inv.radius,
            self.label_code.radius,
            self.label_code_inv.radius,
        )


def validate_square_shape(square: ConjugacySquare) -> None:
    g_edges = square.graph_g.edge_names()
    h_edges = square.graph_h.edge_names()
    pairs = [
        ("edge_code", square.edge_code, g_edges, h_edges),
        ("edge_code_inv", square.edge_code_inv, h_edges, g_edges),
        ("label_code", square.label_code, square.graph_g.symbols, square.graph_h.symbols),
        ("label_code_inv", square.label_code_inv, square.graph_h.symbols, square.graph_g.symbols),
    ]
    for name, code, want_in, want_out in pairs:
        if tuple(code.input_alphabet) != tuple(want_in):
            raise GraphFormatError(f"{name}: input alphabet does not match the graph")
        if tuple(code.output_alphabet) != tuple(want_out):
            raise GraphFormatError(f"{name}: output alphabet does not match the graph")


def inverse_square(square: ConjugacySquare) -> ConjugacySquare:
    return ConjugacySquare(
        square.graph_h,
        square.graph_g,
        square.edge_code_inv,
        square.edge_code,
        square.label_code_inv,
        square.label_code,
    )


def identity_square(g: LabeledGraph) -> ConjugacySquare:
    edge_rule = {(name,): name for name in g.edge_names()}
    label_rule = {(s,): s for s in g.symbols}
    edge = SlidingBlockCode(g.edge_names(), g.edge_names(), 0, edge_rule)
    label = SlidingBlockCode(g.symbols, g.symbols, 0, label_rule)
    return ConjugacySquare(g, g, edge, edge, label, label)


def renaming_square(
    g: LabeledGraph, h: LabeledGraph, vertex_map: Sequence[int]
) -> ConjugacySquare:
    """Square induced by a label-preserving isomorphism g -> h given as a
    vertex index map."""
    if sorted(vertex_map) != list(range(len(h.vertices))):
        raise GraphFormatError("vertex map is not a bijection")
    h_lookup = {
        (u, h.symbols[a], v): k for k, (u, a, v) in enumerate(h.edges)
    }
    fwd: dict[Block, str] = {}
    back: dict[Block, str] = {}
    for k, (u, a, v) in enumerate(g.edges):
        key = (vertex_map[u], g.symbols[a], vertex_map[v])
        if key not in h_lookup:
            raise GraphFormatError("vertex map does not carry edges onto edges")
        h_name = h.edge_name(h_lookup[key])
        fwd[(g.edge_name(k),)] = h_name
        back[(h_name,)] = g.edge_name(k)
    if len(back) != len(h.edges):
        raise GraphFormatError("vertex map does not carry edges onto edges")
    sym_fwd = {(s,): s for s in g.symbols}
    sym_back = {(s,): s for s in h.symbols}
    if set(g.symbols) != set(h.symbols):
        raise GraphFormatError("renaming square needs identical alphabets")
    return ConjugacySquare(
        g,
        h,
        SlidingBlockCode(g.edge_names(), h.edge_names(), 0, fwd),
        SlidingBlockCode(h.edge_names(), g.edge_names(), 0, back),
        SlidingBlockCode(g.symbols, h.symbols, 0, sym_fwd),
        SlidingBlockCode(h.symbols, g.symbols, 0, sym_back),
    )


@dataclass(frozen=True)
class HigherBlockRecoding:
    """A presentation on length-n paths with the canonical conjugacy onto it."""

    graph: LabeledGraph
    square: ConjugacySquare


def higher_block(g: LabeledGraph, n: int) -> HigherBlockRecoding:
    """Recode on overlapping n-blocks: vertices are paths of length n-1,
    edges are paths of length n labeled by their joined label words."""
    require_essential(g)
    if n < 1:
        raise GraphFormatError("block length must be at least 1")
    if n == 1:
        return HigherBlockRecoding(g, identity_square(g))
    vertices = list(paths_of_length(g, n - 1))
    v_index = {p: i for i, p in enumerate(vertices)}
    v_names = tuple("|".join(g.edge_name(k) for k in p) for p in vertices)
    sym_names: list[str] = []
    sym_index: dict[str, int] = {}
    edges = []
    edge_of_path: dict[tuple[int, ...], int] = {}
    for p in paths_of_length(g, n):
        word = ".".join(g.symbols[g.edges[k][1]] for k in p)
        if word not in sym_index:
            sym_index[word] = len(sym_names)
            sym_names.append(word)
        edge_of_path[p] = len(edges)
        edges.append((v_index[p[:-1]], sym_index[word], v_index[p[1:]]))
    graph = LabeledGraph(tuple(sym_names), v_names, tuple(edges))

    r = n - 1
    fwd: dict[Block, str] = {}
    for p in paths_of_length(g, 2 * n - 1):
        block = tuple(g.edge_name(k) for k in p)
        fwd[block] = graph.edge_name(edge_of_path[p[r : r + n]])
    back = {
        (graph.edge_name(k),): g.edge_name(p[0])
        for p, k in edge_of_path.items()
    }
    label_fwd: dict[Block, str] = {}
    for p in paths_of_length(g, 2 * n - 1):
        block = tuple(g.symbols[g.edges[k][1]] for k in p)
        label_fwd[block] = ".".join(block[r : r + n])
    label_back = {(w,): w.split(".")[0] for w in sym_names}
    square = ConjugacySquare(
        g,
        graph,
        SlidingBlockCode(g.edge_names(), graph.edge_names(), r, fwd),
        SlidingBlockCode(graph.edge_names(), g.edge_names(), 0, back),
        SlidingBlockCode(g.symbols, graph.symbols, r, label_fwd),
        SlidingBlockCode(graph.symbols, g.symbols, 0, label_back),
    )
    return HigherBlockRecoding(graph, square)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SquareReport:
    ok: bool
    checks: tuple[CheckOutcome, ...]

    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.ok]


def _edge_cycles(g: LabeledGraph, max_period: int) -> list[tuple[int, ...]]:
    """Primitive edge cycles up to rotation, by least rotation order."""
    found = set()
    for length in range(1, max_period + 1):
        for p in paths_of_length(g, length):
            if g.edges[p[-1]][2] != g.edges[p[0]][0]:
                continue
            if primitive_root(p) != p:
                continue
            found.add(least_rotation(p))
    return sorted(found)


def verify_square(
    square: ConjugacySquare, max_window: int = 12, max_period: int = 6
) -> SquareReport:
    """Exhaustively check the square identities on short windows and on
    periodic points.

    Each identity is checked on every window of its minimal adequate
    length; since the identities are local, this settles them on all
    longer windows as well.  ``max_window`` must cover those lengths.
    """
    validate_square_shape(square)
    g, h = square.graph_g, square.graph_h
    require_essential(g)
    require_essential(h)
    h_edge_index = {name: i for i, name in enumerate(h.edge_names())}
    checks: list[CheckOutcome] = []

    def run_windows(name, graph, length, fn):
        if length > max_window:
            checks.append(
                CheckOutcome(name, False, f"needs window length {length} > bound {max_window}")
            )
            return
        bad = 0
        first = ""
        total = 0
        for p in paths_of_length(graph, length):
            total += 1
            try:
                ok, detail = fn(p)
            except GraphFormatError as exc:
                ok, detail = False, str(exc)
            if not ok:
                bad += 1
                if not first:
                    first = detail
        detail = f"{total} windows of length {length}"
        if bad:
            detail = f"{bad}/{total} windows failed; first: {first}"
        checks.append(CheckOutcome(name, bad == 0, detail))

    phi, phi_inv = square.edge_code, square.edge_code_inv
    psi, psi_inv = square.label_code, square.label_code_inv

    def g_labels(p):
        return tuple(g.symbols[g.edges[k][1]] for k in p)

    def h_labels_of(names_window: Window) -> tuple[str, ...]:
        return tuple(
            h.symbols[h.edges[h_edge_index[name]][1]] for name in names_window.items
        )

    m = max(phi.radius, psi.radius)
    len_label = 2 * m + 1

    def check_label_square(p):
        win = Window(0, tuple(g.edge_name(k) for k in p))
        image = apply_code(phi, win)
        lhs = h_labels_of(image)[m - phi.radius : len(image) - (m - phi.radius)]
        rhs_all = apply_code(psi, Window(0, g_labels(p)))
        rhs = rhs_all.items[m - psi.radius : len(rhs_all) - (m - psi.radius)]
        if lhs != tuple(rhs):
            return False, f"labels disagree on window {win.items}"
        return True, ""

    run_windows("labels-after-edge-map", g, len_label, check_label_square)

    len_phi_rt = 2 * (phi.radius + phi_inv.radius) + 1

    def check_phi_round(p):
        win = Window(0, tuple(g.edge_name(k) for k in p))
        back = apply_code(phi_inv, apply_code(phi, win))
        mid = (len_phi_rt - 1) // 2
        if back[mid] != win[mid]:
            return False, f"edge round trip broke at {win.items}"
        return True, ""

    run_windows("edge-code-round-trip", g, len_phi_rt, check_phi_round)

    len_psi_rt = 2 * (psi.radius + psi_inv.radius) + 1

    def check_psi_round(p):
        win = Window(0, g_labels(p))
        back = apply_code(psi_inv, apply_code(psi, win))
        mid = (len_psi_rt - 1) // 2
        if back[mid] != win[mid]:
            return False, f"label round trip broke at {win.items}"
        return True, ""

    run_windows("label-code-round-trip", g, len_psi_rt, check_psi_round)

    bad = 0
    first = ""
    cycles = _edge_cycles(g, max_period)
    for cyc in cycles:
        names = tuple(g.edge_name(k) for k in cyc)
        try:
            image = apply_code_cyclic(phi, names)
            image_labels = tuple(
                h.symbols[h.edges[h_edge_index[nm]][1]] for nm in image
            )
            psi_labels = apply_code_cyclic(psi, g_labels(cyc))
            back = apply_code_cyclic(phi_inv, image)
        except GraphFormatError as exc:
            bad += 1
            if not first:
                first = str(exc)
            continue
        if image_labels != psi_labels or back != names:
            bad += 1
            if not first:
                first = f"cycle {names}"
    checks.append(
        CheckOutcome(
            "periodic-points",
            bad == 0,
            f"{len(cycles)} primitive cycles up to period {max_period}"
            + (f"; {bad} failed; first: {first}" if bad else ""),
        )
    )

    return SquareReport(all(c.ok for c in checks), tuple(checks))


@dataclass(frozen=True)
class ComponentInterval:
    """Maximal run of window vertex positions inside one component."""

    start: int
    end: int
    component: int


def component_intervals(core: StableCore, window: Window) -> list[ComponentInterval]:
    """Component intervals of a stable-core path window, in vertex positions
    window.start .. window.end + 1.

    Every interval is checked homogeneous: member sets of its vertices all
    have the component's common size.
    """
    info = components_and_sources(core.graph, core.members)
    verts = _vertex_sequence(core.graph, window)
    comps = [info.component_of[v] for v in verts]
    intervals: list[ComponentInterval] = []
    pos = 0
    while pos < len(comps):
        c = comps[pos]
        if c is None:
            pos += 1
            continue
        end = pos
        while end + 1 < len(comps) and comps[end + 1] == c:
            end += 1
        intervals.append(ComponentInterval(window.start + pos, window.start + end, c))
        sizes = {len(core.members[verts[t]]) for t in range(pos, end + 1)}
        if sizes != {info.multiplicity[c]}:
            raise VerificationError(
                f"component interval [{window.start + pos}, {window.start + end}] "
                "is not homogeneous"
            )
        pos = end + 1
    return intervals


def _vertex_sequence(graph: LabeledGraph, window: Window) -> list[int]:
    verts = [graph.edges[window.items[0]][0]]
    for k in window.items:
        if graph.edges[k][0] != verts[-1]:
            raise GraphFormatError("window edges do not compose")
        verts.append(graph.edges[k][2])
    return verts


@dataclass(frozen=True)
class MappedBundle:
    """Image of one bundle-path position under the edge code."""

    source_set: frozenset[int]
    symbol: int
    target_set: frozenset[int]
    members: tuple[int, ...]


def member_paths_of_window(
    core: StableCore, window: Window
) -> list[tuple[int, ...]]:
    """The parallel base paths under a homogeneous core window, one per
    member of the starting vertex's set."""
    base = core.base
    emit = base.index.edge_at
    start_members = core.members[core.graph.edges[window.items[0]][0]]
    word = [core.graph.edges[k][1] for k in window.items]
    vertex_seq = _vertex_sequence(core.graph, window)
    paths = []
    for v0 in sorted(start_members):
        v = v0
        path = []
        for t, a in enumerate(word):
            k = emit.get((v, a))
            if k is None:
                raise VerificationError(
                    "member path dies inside a homogeneous window"
                )
            path.append(k)
            v = base.edges[k][2]
        paths.append(tuple(path))
    for t in range(1, len(vertex_seq)):
        at_t = frozenset(base.edges[p[t - 1]][2] for p in paths)
        if at_t != core.members[vertex_seq[t]]:
            raise VerificationError(
                "member paths do not cover the window's sets; "
                "the window is not homogeneous"
            )
    return paths


def map_parallel_paths(
    square: ConjugacySquare,
    paths: Sequence[Sequence[int]],
    start: int,
    trim: int,
) -> list[MappedBundle]:
    """Apply the edge code to each parallel base path and re-bundle.

    Input paths live on positions [start, start + len - 1]; the output
    covers the same range shrunk by ``trim`` (at least the code radius).
    """
    g, h = square.graph_g, square.graph_h
    phi = square.edge_code
    if trim < phi.radius:
        raise GraphFormatError("trim must be at least the edge-code radius")
    h_edge_index = {name: i for i, name in enumerate(h.edge_names())}
    images = []
    for p in paths:
        win = Window(start, tuple(g.edge_name(k) for k in p))
        out = apply_code(phi, win)
        images.append([h_edge_index[name] for name in out.items])
    lo = start + trim
    hi = start + len(paths[0]) - 1 - trim
    bundles = []
    for t in range(lo, hi + 1):
        idx = t - (start + phi.radius)
        members = tuple(sorted({img[idx] for img in images}))
        sources = frozenset(h.edges[k][0] for k in members)
        targets = frozenset(h.edges[k][2] for k in members)
        symbols = {h.edges[k][1] for k in members}
        if len(symbols) != 1:
            raise VerificationError("bundled image edges disagree on the label")
        if len(members) != len(paths):
            raise VerificationError("image family collapsed two member paths")
        bundles.append(MappedBundle(sources, symbols.pop(), targets, members))
    return bundles


def bundle_member_paths(
    base: LabeledGraph, bundle_path: Sequence
) -> list[tuple[int, ...]]:
    """Unbundle a path of all-member bundle edges into its parallel base
    paths, one per source vertex of the first bundle edge."""
    if not bundle_path:
        return []
    by_source = []
    for b in bundle_path:
        table = {base.edges[k][0]: k for k in b.members}
        if len(table) != len(b.members):
            raise VerificationError("bundle edge has two members from one vertex")
        by_source.append(table)
    paths = []
    for v0 in sorted(by_source[0]):
        v = v0
        path = []
        for table in by_source:
            if v not in table:
                raise VerificationError("bundle path is not source-complete")
            k = table[v]
            path.append(k)
            v = base.edges[k][2]
        paths.append(tuple(path))
    return paths


def map_bundle_path(
    square: ConjugacySquare,
    bundle_path: Sequence,
    start: int = 0,
    trim: Optional[int] = None,
) -> list[MappedBundle]:
    """Image of an all-member bundle path: unbundle, map each base path
    through the edge code, bundle the images."""
    paths = bundle_member_paths(square.graph_g, bundle_path)
    if trim is None:
        trim = square.edge_code.radius
    return map_parallel_paths(square, paths, start, trim)


@dataclass
class LiftedCode:
    """The induced conjugacy between stable cores, with its working data.

    ``code`` is a block code over core edge names whose radius guarantees
    that every block contains the long component intervals the
    construction needs.  Its rule is a :class:`CachedRule` evaluated on
    edge indices; names are only produced when the code is serialized.
    """

    square: ConjugacySquare
    core_g: StableCore
    core_h: StableCore
    future_g: CoverBundle
    future_h: CoverBundle
    kappa: int
    block_radius: int
    components: ComponentInfo
    code: SlidingBlockCode = field(repr=False)

    def apply_window(self, window: Window) -> Window:
        """Apply the induced code to a core-of-g edge-index window."""
        D = self.block_radius
        if len(window) < 2 * D + 1:
            raise GraphFormatError(
                f"window of length {len(window)} is too short for radius {D}"
            )
        at = self.code.rule.at
        items = tuple(
            at(tuple(window.items[t : t + 2 * D + 1]))
            for t in range(len(window) - 2 * D)
        )
        return Window(window.start + D, items)


def _component_route(
    lifted: "LiftedCode", window: Window, center: int
) -> int:
    """Output edge at ``center`` for a window whose kappa-neighborhood of
    the center sits inside one component: map members, re-bundle, read off
    the stable-core edge."""
    kappa = lifted.kappa
    seg = window.segment(center - kappa, center + kappa)
    out = _map_component_window(lifted, seg)
    return out[center]


def _map_component_window(lifted: "LiftedCode", window: Window) -> Window:
    """Image of a homogeneous component window, as core-of-h edges on the
    window indices shrunk by kappa."""
    paths = member_paths_of_window(lifted.core_g, window)
    bundles = map_parallel_paths(
        lifted.square, paths, window.start, lifted.kappa
    )
    h_index = lifted.core_h.member_index()
    h_lookup = lifted.core_h.graph.index.edge_at
    edges = []
    for b in bundles:
        if b.source_set not in h_index:
            raise VerificationError(
                "image source set is not a stable set of the target core"
            )
        key = (h_index[b.source_set], b.symbol)
        if key not in h_lookup:
            raise VerificationError("target core misses an image edge")
        k = h_lookup[key]
        if lifted.core_h.members[lifted.core_h.graph.edges[k][2]] != b.target_set:
            raise VerificationError("image bundle drifts from the target core")
        edges.append(k)
    return Window(window.start + lifted.kappa, tuple(edges))


def fill_gap(
    lifted: "LiftedCode",
    window: Window,
    left: tuple[int, int],
    right: tuple[int, int],
) -> Window:
    """Fill the image between two component intervals of a core window.

    ``left = (i, j)`` and ``right = (k, l)`` are edge-position intervals
    of ``window`` that each lie inside one component, with j - i > 4k,
    l - k > 2k and j <= k (k here the common code radius).  The image is
    pinned on both intervals by the member-path route; between them it is
    the unique label-following path.  Disagreement at the right pin, or a
    dead end while following, is reported as an error.
    """
    i, j = left
    k, l = right
    kappa = lifted.kappa
    if not (window.start <= i and l <= window.end):
        raise GraphFormatError("intervals fall outside the window")
    if not (j - i > 4 * kappa and l - k > 2 * kappa and j <= k):
        raise GraphFormatError(
            "interval conditions violated: need j-i>4k, l-k>2k, j<=k"
        )
    for lo, hi in ((i, j), (k, l)):
        comps = _window_edge_components(lifted, window.segment(lo, hi))
        if len(set(comps)) != 1 or comps[0] is None:
            raise GraphFormatError(
                f"[{lo},{hi}] is not inside a single component"
            )
    return _fill_between(lifted, window, i, j, k, l)


def _window_edge_components(lifted: "LiftedCode", seg: Window) -> list[Optional[int]]:
    info = lifted.components
    out = []
    for e in seg.items:
        u, _, v = lifted.core_g.graph.edges[e]
        cu, cv = info.component_of[u], info.component_of[v]
        out.append(cu if cu == cv else None)
    return out


def _fill_between(
    lifted: "LiftedCode", window: Window, i: int, j: int, k: int, l: int
) -> Window:
    kappa = lifted.kappa
    left_img = _map_component_window(lifted, window.segment(i, j))
    right_img = _map_component_window(lifted, window.segment(k, l))
    labels = _label_names(lifted.core_g.graph, window.segment(i, l))
    psi_out = apply_code(lifted.square.label_code, labels)
    core_h = lifted.core_h.graph
    sym_index = {s: t for t, s in enumerate(core_h.symbols)}
    h_lookup = core_h.index.edge_at
    at = core_h.edges[left_img[i + kappa]][0]
    edges = []
    for t in range(i + kappa, l - kappa + 1):
        name = psi_out[t]
        a = sym_index.get(name)
        key = None if a is None else (at, a)
        if key is None or key not in h_lookup:
            raise LabelPathDiedError(
                f"no {name!r}-labeled edge from {core_h.vertices[at]!r} "
                f"at position {t}"
            )
        e = h_lookup[key]
        edges.append(e)
        at = core_h.edges[e][2]
    out = Window(i + kappa, tuple(edges))
    for t in range(i + kappa, j - kappa + 1):
        if out[t] != left_img[t]:
            raise VerificationError("filled path breaks away from the left pin")
    for t in range(k + kappa, l - kappa + 1):
        if out[t] != right_img[t]:
            raise VerificationError("filled path misses the right pin")
    return out


def _label_names(graph: LabeledGraph, window: Window) -> Window:
    return Window(
        window.start,
        tuple(graph.symbols[graph.edges[k][1]] for k in window.items),
    )


def lift_parameters(core: StableCore, kappa: int) -> tuple[ComponentInfo, int]:
    """Component data of the core and the block radius.

    Any path of the computed length must contain a component run longer
    than 8 kappa: runs per component cannot repeat (the component graph is
    acyclic) and off-component vertices never repeat, which bounds the
    length of any path avoiding long runs.
    """
    info = components_and_sources(core.graph, core.members)
    n_comp = len(info.components)
    n_free = sum(1 for c in info.component_of if c is None)
    radius = 8 * kappa * n_comp + n_comp + n_free + 1
    return info, radius


def lift_conjugacy(
    square: ConjugacySquare,
    verify: bool = True,
    budget: int = DEFAULT_MONOID_BUDGET,
) -> LiftedCode:
    """Induce the conjugacy of stable cores from a label-respecting
    conjugacy of the base presentations.

    With ``verify`` the square itself is first checked on its minimal
    windows and small periods; lifting a broken square raises.
    """
    validate_square_shape(square)
    require_right_resolving(square.graph_g, "conjugacy lift")
    require_right_resolving(square.graph_h, "conjugacy lift")
    if verify:
        report = verify_square(square)
        if not report.ok:
            raise VerificationError(
                "square failed verification: "
                + "; ".join(c.name for c in report.failures())
            )
    core_g = stable_core(square.graph_g, budget)
    core_h = stable_core(square.graph_h, budget)
    kappa = max(1, square.max_radius())
    info, radius = lift_parameters(core_g, kappa)

    def rule(block: tuple[int, ...]) -> int:
        win = Window(0, block)
        _vertex_sequence(core_g.graph, win)  # reject non-path blocks early
        return _rule_at_center(lifted, win, radius)

    g_names, h_names = core_g.graph.edge_names(), core_h.graph.edge_names()
    lifted = LiftedCode(
        square=square,
        core_g=core_g,
        core_h=core_h,
        future_g=merged_graph(core_g.graph),
        future_h=merged_graph(core_h.graph),
        kappa=kappa,
        block_radius=radius,
        components=info,
        code=SlidingBlockCode(
            g_names, h_names, radius, CachedRule(rule, g_names, h_names)
        ),
    )
    return lifted


def _rule_at_center(lifted: LiftedCode, window: Window, center: int) -> int:
    """Output edge index at ``center`` of a (2 radius + 1)-block."""
    kappa = lifted.kappa
    comps = _window_edge_components(lifted, window)
    runs: list[tuple[int, int, int]] = []
    pos = 0
    while pos < len(comps):
        c = comps[pos]
        if c is None:
            pos += 1
            continue
        end = pos
        while end + 1 < len(comps) and comps[end + 1] == c:
            end += 1
        runs.append((window.start + pos, window.start + end, c))
        pos = end + 1
    long_runs = [r for r in runs if r[1] - r[0] + 1 > 8 * kappa]
    for s, e, _ in long_runs:
        if s <= center - kappa and center + kappa <= e:
            return _component_route(lifted, window, center)
    rights = [r for r in long_runs if r[0] >= center - kappa]
    if not rights:
        raise VerificationError(
            "block radius failed to capture a long component run on the right"
        )
    right = min(rights, key=lambda r: r[0])
    lefts = [r for r in long_runs if r[1] < right[0]]
    if not lefts:
        raise VerificationError(
            "block radius failed to capture a long component run on the left"
        )
    left = max(lefts, key=lambda r: r[1])
    i, j = left[1] - 7 * kappa, left[1]
    k, l = right[0], right[0] + 7 * kappa
    out = _fill_between(lifted, window, i, j, k, l)
    return out[center]


@dataclass(frozen=True)
class InducedCoverAction:
    """Image of a merged-cover window under the code the lift induces there,
    together with the outcome of the exhaustive preimage agreement check."""

    output: Window
    preimages: int
    agreed: bool


def apply_induced_cover_code(lifted: LiftedCode, window: Window) -> InducedCoverAction:
    """Action induced on windows of the source merged cover.

    The window is lifted to a stable-core window through every member of
    its starting follower class (label-following never dies there: merged
    classes share follower sets), the lifted code is applied, and the
    results are pushed through the target merge.  Every preimage choice
    must give the same image; ``agreed`` records whether they did.
    """
    bundle_g, bundle_h = lifted.future_g, lifted.future_h
    core_g = lifted.core_g.graph
    cover = bundle_g.cover
    D = lifted.block_radius
    if len(window) < 2 * D + 1:
        raise GraphFormatError(
            f"window of length {len(window)} is too short for radius {D}"
        )
    labels = [cover.edges[e][1] for e in window.items]
    lookup = edge_lookup(core_g)
    start_class = bundle_g.classes[cover.edges[window.items[0]][0]]
    outputs: list[tuple[int, ...]] = []
    for u0 in sorted(start_class):
        v = u0
        path = []
        for t, a in enumerate(labels):
            k = lookup.get((v, a))
            if k is None or bundle_g.factor_edge[k] != window.items[t]:
                raise VerificationError(
                    "factor preimage died; the merge is not right-covering"
                )
            path.append(k)
            v = core_g.edges[k][2]
        image = lifted.apply_window(Window(window.start, tuple(path)))
        outputs.append(tuple(bundle_h.factor_edge[e] for e in image.items))
    if not outputs:
        raise VerificationError("cover vertex with an empty follower class")
    agreed = all(out == outputs[0] for out in outputs)
    return InducedCoverAction(
        Window(window.start + D, outputs[0]), len(outputs), agreed
    )


def _bfs_edge_path(g: LabeledGraph, source: int, target: int) -> Optional[list[int]]:
    """A shortest edge path from source to target, or None."""
    if source == target:
        return []
    parent: dict[int, tuple[int, int]] = {}
    todo = [source]
    seen = {source}
    while todo:
        u = todo.pop(0)
        for k in g.out_edges(u):
            v = g.edges[k][2]
            if v in seen:
                continue
            seen.add(v)
            parent[v] = (u, k)
            if v == target:
                path = []
                at = target
                while at != source:
                    u0, k0 = parent[at]
                    path.append(k0)
                    at = u0
                path.reverse()
                return path
            todo.append(v)
    return None


def _unroll_cycle(edges: Sequence[int], length: int) -> tuple[int, ...]:
    reps = -(-length // len(edges))
    return (tuple(edges) * reps)[:length]


def sample_core_windows(
    core: StableCore,
    length: int,
    periodic: Sequence[PeriodicWord],
    rng: random.Random,
    walks: int = 6,
    max_pairs: int = 12,
) -> list[Window]:
    """Deterministic window sample for bounded code verification.

    Three families: unrollings of the periodic rays, windows centered on a
    shortest connector between two different rays (these cross component
    boundaries when the rays sit in different components), and seeded
    random walks.  Windows are deduplicated by their edge content.
    """
    g = core.graph
    rays = [past_set_ray(core, p) for p in periodic]
    seen: dict[tuple[int, ...], Window] = {}

    def add(items: tuple[int, ...]) -> None:
        if items not in seen:
            seen[items] = Window(0, items)

    for ray in rays:
        add(_unroll_cycle(ray.edges, length))
    pairs = 0
    for r1 in rays:
        for r2 in rays:
            if r1 is r2 or pairs >= max_pairs:
                continue
            mid = _bfs_edge_path(g, r1.vertices[0], r2.vertices[0])
            if mid is None:
                continue
            left = _unroll_cycle(r1.edges, length)
            right = _unroll_cycle(r2.edges, length)
            full = left + tuple(mid) + right
            center = len(left) + len(mid) // 2
            lo = min(max(0, center - length // 2), len(full) - length)
            add(full[lo : lo + length])
            pairs += 1
    for _ in range(walks):
        v = rng.randrange(len(g.vertices))
        items = []
        for _ in range(length):
            k = rng.choice(g.out_edges(v))
            items.append(k)
            v = g.edges[k][2]
        add(tuple(items))
    return list(seen.values())


def _component_windows(
    lifted: LiftedCode,
    rays,
    length: int,
    rng: random.Random,
    per_component: int = 2,
) -> list[Window]:
    """Windows that stay inside a single component: ray unrollings plus
    seeded walks along component-internal edges."""
    g = lifted.core_g.graph
    info = lifted.components
    seen: dict[tuple[int, ...], Window] = {}

    def add(items: tuple[int, ...]) -> None:
        if items not in seen:
            seen[items] = Window(0, items)

    for ray in rays:
        add(_unroll_cycle(ray.edges, length))
    internal: dict[int, dict[int, list[int]]] = {}
    for k, (u, _, v) in enumerate(g.edges):
        c = info.component_of[u]
        if c is not None and c == info.component_of[v]:
            internal.setdefault(c, {}).setdefault(u, []).append(k)
    for c in sorted(internal):
        outs = internal[c]
        for _ in range(per_component):
            v = rng.choice(sorted(outs))
            items = []
            for _ in range(length):
                k = rng.choice(outs[v])
                items.append(k)
                v = g.edges[k][2]
            add(tuple(items))
    return list(seen.values())


def verify_lift_diagrams(
    lifted: LiftedCode,
    inverse_lifted: Optional[LiftedCode] = None,
    max_period: int = 4,
    window_length: Optional[int] = None,
    walks: int = 6,
    seed: int = 2026,
) -> SquareReport:
    """Bounded commuting-diagram checks for a lifted conjugacy.

    On sampled stable-core windows and on periodic words up to
    ``max_period``: the lifted code carries labels through the label code;
    the action induced on the merged cover is well defined and commutes
    with the factor maps; on periodic words the canonical rays map onto
    the canonical rays of the image words; on component windows the lifted
    code agrees with the member-path route.  With ``inverse_lifted`` the
    two codes are additionally composed and compared with the identity.
    The sweep samples the shift, it does not enumerate it; the closing
    note records the bounds used.
    """
    square = lifted.square
    g, h = square.graph_g, square.graph_h
    core_g, core_h = lifted.core_g, lifted.core_h
    D = lifted.block_radius
    length = window_length if window_length is not None else 2 * D + 9
    if length < 2 * D + 1:
        raise GraphFormatError(
            f"window length {length} is below the code width {2 * D + 1}"
        )
    rng = random.Random(seed)
    periodic = periodic_points(g, max_period)
    rays = [past_set_ray(core_g, p) for p in periodic]
    windows = sample_core_windows(core_g, length, periodic, rng, walks)
    checks: list[CheckOutcome] = []

    def sweep(name: str, items, fn, detail: str) -> None:
        bad = 0
        first = ""
        for item in items:
            try:
                ok, info = fn(item)
            except (GraphFormatError, VerificationError, LabelPathDiedError) as exc:
                ok, info = False, str(exc)
            if not ok:
                bad += 1
                if not first:
                    first = info
        out = detail if not bad else f"{bad}/{len(items)} failed; first: {first}"
        checks.append(CheckOutcome(name, bad == 0, out))

    psi = square.label_code

    def check_labels(w: Window):
        out = lifted.apply_window(w)
        lhs = tuple(
            core_h.graph.symbols[core_h.graph.edges[k][1]] for k in out.items
        )
        rhs_win = apply_code(psi, _label_names(core_g.graph, w))
        rhs = tuple(rhs_win[t] for t in range(out.start, out.end + 1))
        if lhs != rhs:
            return False, f"labels disagree on a window starting with edge {w.items[0]}"
        return True, ""

    sweep(
        "labels-commute",
        windows,
        check_labels,
        f"{len(windows)} windows of length {length}",
    )

    def check_induced(w: Window):
        xi = Window(w.start, tuple(lifted.future_g.factor_edge[k] for k in w.items))
        action = apply_induced_cover_code(lifted, xi)
        if not action.agreed:
            return False, f"{action.preimages} preimages disagree"
        direct = tuple(
            lifted.future_h.factor_edge[k] for k in lifted.apply_window(w).items
        )
        if action.output.items != direct:
            return False, "cover action disagrees with the factored image"
        return True, ""

    sweep(
        "induced-cover-commutes",
        windows,
        check_induced,
        f"{len(windows)} cover windows, all preimages lifted",
    )

    h_sym = {s: i for i, s in enumerate(h.symbols)}
    h_core_lookup = edge_lookup(core_h.graph)
    h_members = core_h.member_index()

    def check_alpha(p: PeriodicWord):
        T = p.period
        ray = past_set_ray(core_g, p)
        win = Window(0, _unroll_cycle(ray.edges, 2 * D + T))
        out = lifted.apply_window(win)
        names = apply_code_cyclic(
            psi, tuple(g.symbols[a] for a in p.word)
        )
        hw = tuple(h_sym[nm] for nm in names)
        for t in range(out.start, out.end + 1):
            k = t % T
            rot = hw[k:] + hw[:k]
            members = stabilized_range(word_relation(h, rot))
            v = h_members.get(members)
            if v is None:
                return False, "image word's stabilized set missing from the core"
            e = h_core_lookup.get((v, hw[k]))
            if e is None or out[t] != e:
                return False, f"canonical rays disagree for period {T}"
        return True, ""

    sweep(
        "periodic-alpha-naturality",
        periodic,
        check_alpha,
        f"{len(periodic)} periodic words up to period {max_period}",
    )

    comp_windows = _component_windows(lifted, rays, 2 * D + 5, rng)

    def check_component(w: Window):
        out = lifted.apply_window(w)
        direct = _map_component_window(lifted, w)
        for t in range(out.start, out.end + 1):
            if out[t] != direct[t]:
                return False, "lifted code leaves the member-path image"
        return True, ""

    sweep(
        "component-extension",
        comp_windows,
        check_component,
        f"{len(comp_windows)} component windows",
    )

    if inverse_lifted is not None:
        D2 = inverse_lifted.block_radius
        rt_length = 2 * (D + D2) + 9
        rt_windows = sample_core_windows(core_g, rt_length, periodic, rng, walks)

        def check_round_trip(w: Window):
            mid = lifted.apply_window(w)
            back = inverse_lifted.apply_window(mid)
            if back.items != w.segment(back.start, back.end).items:
                return False, "composition moved a window"
            return True, ""

        sweep(
            "round-trip-identity",
            rt_windows,
            check_round_trip,
            f"{len(rt_windows)} windows of length {rt_length}",
        )

    checks.append(
        CheckOutcome(
            "bounded-verification-note",
            True,
            f"identities sampled on {len(windows)} windows of length {length} "
            f"and periodic words up to period {max_period}; the full shift is "
            "not enumerated",
        )
    )
    return SquareReport(all(c.ok for c in checks), tuple(checks))
