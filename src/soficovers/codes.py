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
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    GraphFormatError,
    LabelPathDiedError,
    VerificationError,
)
from .graphs import (
    LabeledGraph,
    edge_lookup,
    lyndon_words,
    paths_of_length,
    require_essential,
    require_right_resolving,
    window_labels,
)
from .analysis import ComponentInfo, components_and_sources, past_masks, periodic_points
from .covers import (
    CoverBundle,
    PeriodicRay,
    StableCore,
    merged_graph,
    past_set_ray,
    stable_core,
)
from .relations import DEFAULT_MONOID_BUDGET, set_of

Block = tuple[int, ...]

_CONNECTOR_PAIRS = 12  # ray pairs joined by a connector window per sample
_COMPONENT_WALKS = 2  # seeded walks per component in the component windows


@dataclass(frozen=True)
class SlidingBlockCode:
    """A block map: the output at index i is a function of the input on
    [i - radius, i + radius].

    Blocks and outputs are indices into the alphabets: edge indices for an
    edge code, symbol indices for a label code.  The alphabets hold the
    names, which appear only in files and messages.  ``rule`` is a table
    from blocks to outputs; a block it lacks is reported at application
    time.  The lifted conjugacy of stable cores is not tabulated: it is
    applied by :func:`apply_lifted`.
    """

    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]
    radius: int
    rule: Mapping[Block, int]

    def output_for(self, block: Block) -> int:
        if len(block) != 2 * self.radius + 1:
            raise GraphFormatError(
                f"rule expects blocks of length {2 * self.radius + 1}, "
                f"got {len(block)}"
            )
        try:
            return self.rule[block]
        except KeyError:
            raise GraphFormatError(
                f"code has no rule for block {self.block_names(block)!r}"
            ) from None

    def block_names(self, block: Block) -> tuple[str, ...]:
        return tuple(self.input_alphabet[k] for k in block)


def _require_length(window: Sequence, radius: int) -> None:
    if len(window) < 2 * radius + 1:
        raise GraphFormatError(
            f"window of length {len(window)} is too short for radius {radius}"
        )


def _block_outputs(code: SlidingBlockCode, items: tuple) -> tuple[int, ...]:
    """The output of every (2 radius + 1)-block of ``items``, in order.
    Each block is looked up once; the first block the table lacks
    raises."""
    r = code.radius
    blocks = [items[t : t + 2 * r + 1] for t in range(len(items) - 2 * r)]
    outs = list(map(code.rule.get, blocks))
    for t, out in enumerate(outs):
        if out is None:  # output_for raises the missing-block error
            outs[t] = code.output_for(blocks[t])
    return tuple(outs)


def apply_code(code: SlidingBlockCode, window: Sequence[int]) -> Block:
    """Apply to a finite configuration of input indices: output i is the
    image of the block centred on input i + radius."""
    _require_length(window, code.radius)
    return _block_outputs(code, tuple(window))


def apply_code_cyclic(code: SlidingBlockCode, word: Sequence[int]) -> tuple[int, ...]:
    """Apply to a periodic point given by one period; output is phase-aligned
    with the input and has the same length (possibly non-primitive)."""
    n = len(word)
    if not n:
        return ()
    r = code.radius
    reps = -(-r // n)  # whole periods on each side cover the radius
    unrolled = tuple(word) * (2 * reps + 1)
    return _block_outputs(code, unrolled[reps * n - r : (reps + 1) * n + r])


def rule_entries(code: SlidingBlockCode) -> tuple[tuple[tuple[str, ...], str], ...]:
    """The rule entries in names, sorted."""
    return tuple(
        sorted(
            (code.block_names(block), code.output_alphabet[out])
            for block, out in code.rule.items()
        )
    )


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
    return renaming_square(g, g, range(len(g.vertices)))


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
    fwd: dict[Block, int] = {}
    back: dict[Block, int] = {}
    for k, (u, a, v) in enumerate(g.edges):
        key = (vertex_map[u], g.symbols[a], vertex_map[v])
        if key not in h_lookup:
            raise GraphFormatError("vertex map does not carry edges onto edges")
        fwd[(k,)] = h_lookup[key]
        back[(h_lookup[key],)] = k
    if len(back) != len(h.edges):
        raise GraphFormatError("vertex map does not carry edges onto edges")
    if set(g.symbols) != set(h.symbols):
        raise GraphFormatError("renaming square needs identical alphabets")
    sym_fwd = {(a,): h.symbol_index(s) for a, s in enumerate(g.symbols)}
    sym_back = {(b,): a for (a,), b in sym_fwd.items()}
    return ConjugacySquare(
        g,
        h,
        SlidingBlockCode(g.edge_names(), h.edge_names(), 0, fwd),
        SlidingBlockCode(h.edge_names(), g.edge_names(), 0, back),
        SlidingBlockCode(g.symbols, h.symbols, 0, sym_fwd),
        SlidingBlockCode(h.symbols, g.symbols, 0, sym_back),
    )


def higher_block(g: LabeledGraph, n: int) -> ConjugacySquare:
    """The canonical conjugacy of g onto its recoding on overlapping
    n-blocks, whose ``graph_h`` has the paths of length n-1 as vertices
    and the paths of length n, labeled by their joined label words, as
    edges."""
    require_essential(g)
    if n < 1:
        raise GraphFormatError("block length must be at least 1")
    if n == 1:
        return identity_square(g)
    vertices = list(paths_of_length(g, n - 1))
    v_index = {p: i for i, p in enumerate(vertices)}
    v_names = tuple("|".join(g.edge_name(k) for k in p) for p in vertices)
    sym_names: list[str] = []
    sym_index: dict[str, int] = {}
    first_symbol: list[int] = []
    edges = []
    edge_of_path: dict[tuple[int, ...], int] = {}
    for p in paths_of_length(g, n):
        word = ".".join(g.symbols[g.edges[k][1]] for k in p)
        if word not in sym_index:
            sym_index[word] = len(sym_names)
            sym_names.append(word)
            first_symbol.append(g.edges[p[0]][1])
        edge_of_path[p] = len(edges)
        edges.append((v_index[p[:-1]], sym_index[word], v_index[p[1:]]))
    graph = LabeledGraph(tuple(sym_names), v_names, tuple(edges))

    r = n - 1
    fwd: dict[Block, int] = {}
    label_fwd: dict[Block, int] = {}
    for p in paths_of_length(g, 2 * n - 1):
        k = edge_of_path[p[r : r + n]]
        fwd[p] = k
        label_fwd[tuple(g.edges[e][1] for e in p)] = graph.edges[k][1]
    back = {(k,): p[0] for p, k in edge_of_path.items()}
    label_back = {(b,): a for b, a in enumerate(first_symbol)}
    return ConjugacySquare(
        g,
        graph,
        SlidingBlockCode(g.edge_names(), graph.edge_names(), r, fwd),
        SlidingBlockCode(graph.edge_names(), g.edge_names(), 0, back),
        SlidingBlockCode(g.symbols, graph.symbols, r, label_fwd),
        SlidingBlockCode(graph.symbols, g.symbols, 0, label_back),
    )


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SquareReport:
    checks: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.ok]


def _edge_cycles(g: LabeledGraph, max_period: int) -> list[tuple[int, ...]]:
    """Primitive edge cycles of length <= max_period up to rotation, each
    as its least rotation, in lexicographic order.

    The least rotations of primitive cycles are the Lyndon words over edge
    indices that are closed paths.  :func:`graphs.lyndon_words` extends a
    prefix only by the edges leaving its last edge's target, so every
    prefix is a path, and a Lyndon path is kept when it returns to its
    first edge's source.
    """
    edges, out = g.edges, g.index.out

    def moves(after: Sequence[int], least: int) -> list[tuple[int, Sequence[int]]]:
        return [(k, out[edges[k][2]]) for k in after if k >= least]

    found = [
        p
        for p in lyndon_words(max_period, range(len(edges)), moves)
        if edges[p[-1]][2] == edges[p[0]][0]
    ]
    return sorted(found)


def _failures(
    items: Iterable, fn: Callable[..., tuple[bool, str]]
) -> tuple[int, int, str]:
    """Run the check ``fn`` on each item, counting a raised package error as
    a failure with its message: (failed, total, first failure detail)."""
    bad = total = 0
    first = ""
    for item in items:
        total += 1
        try:
            ok, detail = fn(item)
        except (GraphFormatError, VerificationError, LabelPathDiedError) as exc:
            ok, detail = False, str(exc)
        if not ok:
            bad += 1
            first = first or detail
    return bad, total, first


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
    checks: list[CheckOutcome] = []

    def run_windows(name, graph, length, fn):
        if length > max_window:
            checks.append(
                CheckOutcome(name, False, f"needs window length {length} > bound {max_window}")
            )
            return
        bad, total, first = _failures(paths_of_length(graph, length), fn)
        detail = f"{total} windows of length {length}"
        if bad:
            detail = f"{bad}/{total} windows failed; first: {first}"
        checks.append(CheckOutcome(name, bad == 0, detail))

    phi, phi_inv = square.edge_code, square.edge_code_inv
    psi, psi_inv = square.label_code, square.label_code_inv

    m = max(phi.radius, psi.radius)
    len_label = 2 * m + 1

    def check_label_square(p):
        image = window_labels(h, apply_code(phi, p))
        lhs = image[m - phi.radius : len(image) - (m - phi.radius)]
        rhs_all = apply_code(psi, window_labels(g, p))
        rhs = rhs_all[m - psi.radius : len(rhs_all) - (m - psi.radius)]
        if lhs != rhs:
            return False, f"labels disagree on window {phi.block_names(p)}"
        return True, ""

    run_windows("labels-after-edge-map", g, len_label, check_label_square)

    len_phi_rt = 2 * (phi.radius + phi_inv.radius) + 1

    def check_phi_round(p):
        (back,) = apply_code(phi_inv, apply_code(phi, p))
        if back != p[(len_phi_rt - 1) // 2]:
            return False, f"edge round trip broke at {phi.block_names(p)}"
        return True, ""

    run_windows("edge-code-round-trip", g, len_phi_rt, check_phi_round)

    len_psi_rt = 2 * (psi.radius + psi_inv.radius) + 1

    def check_psi_round(p):
        labels = window_labels(g, p)
        (back,) = apply_code(psi_inv, apply_code(psi, labels))
        if back != labels[(len_psi_rt - 1) // 2]:
            return False, f"label round trip broke at {psi.block_names(labels)}"
        return True, ""

    run_windows("label-code-round-trip", g, len_psi_rt, check_psi_round)

    def check_cycle(cyc):
        image = apply_code_cyclic(phi, cyc)
        psi_labels = apply_code_cyclic(psi, window_labels(g, cyc))
        back = apply_code_cyclic(phi_inv, image)
        if window_labels(h, image) != psi_labels or back != cyc:
            return False, f"cycle {phi.block_names(cyc)}"
        return True, ""

    bad, total, first = _failures(_edge_cycles(g, max_period), check_cycle)
    checks.append(
        CheckOutcome(
            "periodic-points",
            bad == 0,
            f"{total} primitive cycles up to period {max_period}"
            + (f"; {bad} failed; first: {first}" if bad else ""),
        )
    )

    return SquareReport(tuple(checks))


def _runs(comps: Sequence[Optional[int]]) -> list[tuple[int, int, int]]:
    """Maximal runs of one component id as (first, last, id), positions
    counted from 0; ``None`` entries belong to no run."""
    runs = []
    pos = 0
    for c, group in groupby(comps):
        n = sum(1 for _ in group)
        if c is not None:
            runs.append((pos, pos + n - 1, c))
        pos += n
    return runs


def _vertex_sequence(graph: LabeledGraph, window: Block) -> list[int]:
    verts = [graph.edges[window[0]][0]]
    for k in window:
        if graph.edges[k][0] != verts[-1]:
            raise GraphFormatError("window edges do not compose")
        verts.append(graph.edges[k][2])
    return verts


def member_paths_of_window(
    core: StableCore, window: Block
) -> list[tuple[int, ...]]:
    """The parallel base paths under a homogeneous core window, one per
    member of the starting vertex's set."""
    base = core.base
    start_members = core.members[core.graph.edges[window[0]][0]]
    word = window_labels(core.graph, window)
    vertex_seq = _vertex_sequence(core.graph, window)
    paths = []
    for v0 in sorted(start_members):
        path = _follow(base, v0, word)
        if len(path) < len(word):
            raise VerificationError("member path dies inside a homogeneous window")
        paths.append(path)
    edges, members = base.edges, core.members
    for column, v in zip(zip(*paths), vertex_seq[1:]):
        if {edges[k][2] for k in column} != members[v]:
            raise VerificationError(
                "member paths do not cover the window's sets; "
                "the window is not homogeneous"
            )
    return paths


def _follow(g: LabeledGraph, v: int, word: Sequence[int]) -> tuple[int, ...]:
    """The edge path from ``v`` reading the symbol indices ``word``, as far
    as it gets before a vertex has no edge with the next label."""
    emit = g.index.edge_at
    path = []
    for a in word:
        k = emit.get((v, a))
        if k is None:
            break
        path.append(k)
        v = g.edges[k][2]
    return tuple(path)


@dataclass
class LiftedCode:
    """The induced conjugacy between stable cores, with its working data.

    The code is applied, not tabulated: :func:`apply_lifted` reads it on
    core edge indices at radius ``block_radius``, which guarantees that
    every block contains the long component intervals the construction
    needs.  ``edge_components`` holds each core edge's component, ``None``
    for an edge that leaves its component, and ``target_index`` each
    stable set of the target core's vertex.  Three memos keep what
    windows share, each keyed by an edge tuple: ``window_images`` holds
    the image of a whole window under :func:`apply_lifted`;
    ``segment_images`` the member-path image of a segment inside one
    component; and ``gap_images`` the gap fill of a segment between two
    long runs.  All three hold successes
    only, so a failing window or segment raises again.
    """

    square: ConjugacySquare
    core_g: StableCore
    core_h: StableCore
    future_g: CoverBundle
    future_h: CoverBundle
    kappa: int
    block_radius: int
    edge_components: tuple[Optional[int], ...] = field(repr=False)
    target_index: dict[frozenset[int], int] = field(repr=False)
    window_images: dict[Block, Block] = field(
        default_factory=dict, repr=False, compare=False
    )
    segment_images: dict[Block, Block] = field(
        default_factory=dict, repr=False, compare=False
    )
    gap_images: dict[Block, Block] = field(
        default_factory=dict, repr=False, compare=False
    )


def _member_path_image(lifted: "LiftedCode", window: Block) -> Block:
    """Core-of-h edges of a homogeneous component window's member paths:
    output i is the image at window position i + kappa.  Memoized on
    ``lifted.segment_images`` by the window's edge tuple.

    The edge code maps each member path; each column of the images, shrunk
    by kappa at both ends, bundles into one target-core edge.  Every
    column's label and collapse checks run before any target-core lookup.
    """
    image = lifted.segment_images.get(window)
    if image is not None:
        return image
    paths = member_paths_of_window(lifted.core_g, window)
    phi = lifted.square.edge_code
    images = [apply_code(phi, p) for p in paths]
    cut = lifted.kappa - phi.radius  # image positions dropped at each end
    columns = list(zip(*images))[cut : len(images[0]) - cut]
    h_edges = lifted.square.graph_h.edges
    for column in columns:
        if len({h_edges[k][1] for k in column}) != 1:
            raise VerificationError("bundled image edges disagree on the label")
        if len(set(column)) != len(paths):
            raise VerificationError("image family collapsed two member paths")
    h_index = lifted.target_index
    h_lookup = lifted.core_h.graph.index.edge_at
    core_edges, core_members = lifted.core_h.graph.edges, lifted.core_h.members
    edges = []
    for column in columns:
        source = frozenset(h_edges[k][0] for k in column)
        if source not in h_index:
            raise VerificationError(
                "image source set is not a stable set of the target core"
            )
        key = (h_index[source], h_edges[column[0]][1])
        if key not in h_lookup:
            raise VerificationError("target core misses an image edge")
        k = h_lookup[key]
        if core_members[core_edges[k][2]] != {h_edges[e][2] for e in column}:
            raise VerificationError("image bundle drifts from the target core")
        edges.append(k)
    image = lifted.segment_images[window] = tuple(edges)
    return image


def fill_gap(
    lifted: "LiftedCode",
    window: Sequence[int],
    left: tuple[int, int],
    right: tuple[int, int],
) -> Block:
    """Fill the image between two component intervals of a core window.

    ``left = (i, j)`` and ``right = (k, l)`` are edge-position intervals
    of ``window`` that each lie inside one component, with
    j - i > 4 kappa, l - k > 2 kappa and j <= k.  The image is pinned on
    both intervals by the member-path route; between them it is the
    unique label-following path.  Output t is the image at window
    position i + kappa + t.  Disagreement at either pin, or a dead end
    while following, is reported as an error.
    """
    window = tuple(window)
    i, j = left
    k, l = right
    kappa = lifted.kappa
    if not (0 <= i and l < len(window)):
        raise GraphFormatError("intervals fall outside the window")
    if not (j - i > 4 * kappa and l - k > 2 * kappa and j <= k):
        raise GraphFormatError(
            "interval conditions violated: need j-i>4k, l-k>2k, j<=k"
        )
    for lo, hi in ((i, j), (k, l)):
        comps = _window_edge_components(lifted, window[lo : hi + 1])
        if len(set(comps)) != 1 or comps[0] is None:
            raise GraphFormatError(
                f"[{lo},{hi}] is not inside a single component"
            )
    return _fill_between(lifted, window, i, j, k, l)


def _window_edge_components(lifted: "LiftedCode", seg: Block) -> list[Optional[int]]:
    return [lifted.edge_components[e] for e in seg]


def _fill_between(
    lifted: "LiftedCode", window: Block, i: int, j: int, k: int, l: int
) -> Block:
    kappa = lifted.kappa
    left_img = _member_path_image(lifted, window[i : j + 1])
    right_img = _member_path_image(lifted, window[k : l + 1])
    psi = lifted.square.label_code
    labels = window_labels(lifted.core_g.graph, window[i : l + 1])
    psi_out = apply_code(psi, labels)[kappa - psi.radius :]  # from i + kappa
    core_h = lifted.core_h.graph
    h_lookup = core_h.index.edge_at
    at = core_h.edges[left_img[0]][0]
    edges = []
    for t in range(i + kappa, l - kappa + 1):
        a = psi_out[t - i - kappa]
        e = h_lookup.get((at, a))
        if e is None:
            raise LabelPathDiedError(
                f"no {core_h.symbols[a]!r}-labeled edge from "
                f"{core_h.vertices[at]!r} at position {t}"
            )
        edges.append(e)
        at = core_h.edges[e][2]
    out = tuple(edges)
    if out[: len(left_img)] != left_img:
        raise VerificationError("filled path breaks away from the left pin")
    if out[k - i :] != right_img:
        raise VerificationError("filled path misses the right pin")
    return out


def lift_parameters(core: StableCore, kappa: int) -> tuple[ComponentInfo, int]:
    """Component data of the core and the block radius.

    Any path of the computed length must contain a component run longer
    than 8 kappa: runs per component cannot repeat (the component graph is
    acyclic) and off-component vertices never repeat, which bounds the
    length of any path avoiding long runs.
    """
    info = components_and_sources(core.graph)
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
    comp = info.component_of
    return LiftedCode(
        square=square,
        core_g=core_g,
        core_h=core_h,
        future_g=merged_graph(core_g.graph),
        future_h=merged_graph(core_h.graph),
        kappa=kappa,
        block_radius=radius,
        edge_components=tuple(
            comp[u] if comp[u] == comp[v] else None for u, _, v in core_g.graph.edges
        ),
        target_index=core_h.member_index(),
    )


def _lifted_rule(lifted: LiftedCode, items: Block) -> Callable[[int], int]:
    """The lifted rule on a core window: the output edge at a centre, read
    from the (2 radius + 1)-block around it.

    The joins and the long component runs are found once for the window;
    each centre sees them clipped to its block, so a block gives the output
    and raises the error that it gives as a window of its own.  A centre
    at least kappa inside a long run reads the member-path image of its
    kappa-neighbourhood from ``segment_images``.  Clipping that run to the
    centre's block leaves it long, since the block radius is at least
    8 kappa + 2, and a long clipped run lies inside a long run, so the
    centre's block on its own takes the same route.  Any other centre
    takes the gap fill between the nearest long runs around it, read from
    ``gap_images`` by the edges from 7 kappa before the left run's end to
    7 kappa after the right run's start.
    """
    radius, kappa = lifted.block_radius, lifted.kappa
    edges = lifted.core_g.graph.edges
    breaks = [
        t for t in range(1, len(items)) if edges[items[t - 1]][2] != edges[items[t]][0]
    ]
    runs = [
        (s, e)
        for s, e, _ in _runs(_window_edge_components(lifted, items))
        if e - s >= 8 * kappa
    ]
    deep_starts = [s + kappa for s, _ in runs]

    def at(center: int) -> int:
        lo, hi = center - radius, center + radius
        b = bisect_right(breaks, lo)
        if b < len(breaks) and breaks[b] <= hi:
            raise GraphFormatError("window edges do not compose")
        d = bisect_right(deep_starts, center) - 1
        if d >= 0 and center + kappa <= runs[d][1]:
            return _member_path_image(lifted, items[center - kappa : center + kappa + 1])[0]
        long_runs = [  # in window order
            (max(s, lo), min(e, hi))
            for s, e in runs
            if min(e, hi) - max(s, lo) >= 8 * kappa
        ]
        rights = [run for run in long_runs if run[0] >= center - kappa]
        if not rights:
            raise VerificationError(
                "block radius failed to capture a long component run on the right"
            )
        right = rights[0]
        lefts = [run for run in long_runs if run[1] < right[0]]
        if not lefts:
            raise VerificationError(
                "block radius failed to capture a long component run on the left"
            )
        begin = lefts[-1][1] - 7 * kappa
        seg = items[begin : right[0] + 7 * kappa + 1]
        fill = lifted.gap_images.get(seg)
        if fill is None:
            # on the block, whose positions the fill's errors report
            i, j = begin - lo, begin + 7 * kappa - lo
            k, l = right[0] - lo, right[0] + 7 * kappa - lo
            fill = _fill_between(lifted, items[lo : hi + 1], i, j, k, l)
            lifted.gap_images[seg] = fill
        return fill[center - begin - kappa]

    return at


def apply_lifted(lifted: LiftedCode, window: Sequence[int]) -> Block:
    """Apply the lifted code to a core window: output i is the image of
    the block centred on input i + radius, the block radius.  The window
    is prepared once and its centres are read in order, so the first
    failing block raises the error it raises as a window of its own.  The
    image is kept on ``lifted.window_images`` by the window's edge tuple,
    so a repeat of the window reads it back."""
    r = lifted.block_radius
    _require_length(window, r)
    items = tuple(window)
    image = lifted.window_images.get(items)
    if image is None:
        at = _lifted_rule(lifted, items)
        image = lifted.window_images[items] = tuple(map(at, range(r, len(items) - r)))
    return image


def _bfs_edge_path(g: LabeledGraph, source: int, target: int) -> Optional[list[int]]:
    """A shortest edge path from source to target, or None."""
    if source == target:
        return []
    parent: dict[int, tuple[int, int]] = {}
    todo = deque([source])
    seen = {source}
    while todo:
        u = todo.popleft()
        for k in g.index.out[u]:
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
    rays: Sequence[PeriodicRay],
    rng: random.Random,
    walks: int = 6,
) -> list[Block]:
    """Deterministic window sample for bounded code verification.

    Three families: unrollings of the ``core`` rays, windows centered on a
    shortest connector between two different rays (these cross component
    boundaries when the rays sit in different components), and seeded
    random walks.  Windows are deduplicated by their edge content.
    """
    g = core.graph
    found = [_unroll_cycle(ray.edges, length) for ray in rays]
    pairs = 0
    for r1 in rays:
        for r2 in rays:
            if r1 is r2 or pairs >= _CONNECTOR_PAIRS:
                continue
            mid = _bfs_edge_path(g, r1.vertices[0], r2.vertices[0])
            if mid is None:
                continue
            left = tuple(r1.edges) * -(-length // len(r1.edges))  # whole periods
            right = _unroll_cycle(r2.edges, length)
            full = left + tuple(mid) + right
            center = len(left) + len(mid) // 2
            lo = min(max(0, center - length // 2), len(full) - length)
            found.append(full[lo : lo + length])
            pairs += 1
    for _ in range(walks):
        found.append(_walk(g, g.index.out, rng.randrange(len(g.vertices)), length, rng))
    return list(dict.fromkeys(found))


def _walk(
    g: LabeledGraph,
    outs: Sequence[Sequence[int]] | Mapping[int, Sequence[int]],
    v: int,
    length: int,
    rng: random.Random,
) -> tuple[int, ...]:
    """A seeded walk of ``length`` edges from ``v``; each step draws from
    ``outs[u]``, the edges it may take from the current vertex ``u``."""
    items = []
    for _ in range(length):
        k = rng.choice(outs[v])
        items.append(k)
        v = g.edges[k][2]
    return tuple(items)


def _component_windows(
    lifted: LiftedCode,
    rays: Sequence[PeriodicRay],
    length: int,
    rng: random.Random,
) -> list[Block]:
    """Windows that stay inside a single component: ray unrollings plus
    seeded walks along component-internal edges."""
    g = lifted.core_g.graph
    found = [_unroll_cycle(ray.edges, length) for ray in rays]
    internal: dict[int, dict[int, list[int]]] = {}
    for k, c in enumerate(lifted.edge_components):
        if c is not None:
            internal.setdefault(c, {}).setdefault(g.edges[k][0], []).append(k)
    for c in sorted(internal):
        outs = internal[c]
        for _ in range(_COMPONENT_WALKS):
            found.append(_walk(g, outs, rng.choice(sorted(outs)), length, rng))
    return list(dict.fromkeys(found))


def verify_lift_diagrams(
    lifted: LiftedCode,
    inverse_lifted: Optional[LiftedCode] = None,
    max_period: int = 4,
    walks: int = 6,
) -> SquareReport:
    """Bounded commuting-diagram checks for a lifted conjugacy.

    On sampled stable-core windows and on periodic words up to
    ``max_period``: the lifted code carries labels through the label code;
    the action induced on the merged cover is well defined and commutes
    with the factor maps; on periodic words the canonical rays map onto
    the canonical rays of the image words; on component windows the lifted
    code agrees with the member-path route.  With ``inverse_lifted`` the
    two codes are additionally composed and compared with the identity.
    The sweep samples the shift with a fixed seed (2026), it does not
    enumerate it; the closing note records the bounds used.
    """
    periodic = periodic_points(lifted.square.graph_g, max_period)
    rays = [past_set_ray(lifted.core_g, p) for p in periodic]
    return _verify_lift_diagrams(lifted, inverse_lifted, max_period, walks, rays)


def _verify_lift_diagrams(
    lifted: LiftedCode,
    inverse_lifted: Optional[LiftedCode],
    max_period: int,
    walks: int,
    rays: Sequence[PeriodicRay],
) -> SquareReport:
    """:func:`verify_lift_diagrams` on the canonical rays of the periodic
    words of ``graph_g`` up to ``max_period``, one per word in the order of
    :func:`analysis.periodic_points`."""
    square = lifted.square
    h = square.graph_h
    core_g, core_h = lifted.core_g, lifted.core_h
    D = lifted.block_radius
    length = 2 * D + 9
    rng = random.Random(2026)
    windows = sample_core_windows(core_g, length, rays, rng, walks)
    checks: list[CheckOutcome] = []

    def sweep(name: str, items, fn, detail: str) -> None:
        bad, total, first = _failures(items, fn)
        out = detail if not bad else f"{bad}/{total} failed; first: {first}"
        checks.append(CheckOutcome(name, bad == 0, out))

    psi = square.label_code

    def check_labels(w: Block):
        lhs = window_labels(core_h.graph, apply_lifted(lifted, w))
        cut = D - psi.radius  # the label image starts at position psi.radius
        rhs = apply_code(psi, window_labels(core_g.graph, w))[cut : cut + len(lhs)]
        if lhs != rhs:
            return False, f"labels disagree on a window starting with edge {w[0]}"
        return True, ""

    sweep(
        "labels-commute",
        windows,
        check_labels,
        f"{len(windows)} windows of length {length}",
    )

    future_g, future_h = lifted.future_g, lifted.future_h

    def check_induced(w: Block):
        # The action induced on the merged cover: the factored window is
        # lifted through every member of its starting follower class (label
        # following never dies there: merged classes share follower sets),
        # the lifted code is applied, and each image is pushed through the
        # target merge.  Every preimage must give the same image; the
        # window itself is the preimage from its own start vertex.
        xi = tuple(future_g.factor_edge[k] for k in w)
        labels = window_labels(core_g.graph, w)
        outputs = []
        for u0 in future_g.classes[future_g.cover.edges[xi[0]][0]]:
            path = _follow(core_g.graph, u0, labels)
            if tuple(future_g.factor_edge[k] for k in path) != xi:
                raise VerificationError(
                    "factor preimage died; the merge is not right-covering"
                )
            image = apply_lifted(lifted, path)
            outputs.append(tuple(future_h.factor_edge[e] for e in image))
        if not outputs:
            raise VerificationError("cover vertex with an empty follower class")
        if any(out != outputs[0] for out in outputs):
            return False, f"{len(outputs)} preimages disagree"
        return True, ""

    sweep(
        "induced-cover-commutes",
        windows,
        check_induced,
        f"{len(windows)} cover windows, all preimages lifted",
    )

    h_core_lookup = edge_lookup(core_h.graph)
    h_members = lifted.target_index

    def check_alpha(ray: PeriodicRay):
        p = ray.word
        T = p.period
        out = apply_lifted(lifted, _unroll_cycle(ray.edges, 2 * D + T))
        hw = apply_code_cyclic(psi, p.word)
        h_past = past_masks(h, hw)
        for t, got in enumerate(out, D):
            k = t % T
            v = h_members.get(set_of(h_past[k]))
            if v is None:
                return False, "image word's stabilized set missing from the core"
            e = h_core_lookup.get((v, hw[k]))
            if e is None or got != e:
                return False, f"canonical rays disagree for period {T}"
        return True, ""

    sweep(
        "periodic-alpha-naturality",
        rays,
        check_alpha,
        f"{len(rays)} periodic words up to period {max_period}",
    )

    comp_windows = _component_windows(lifted, rays, 2 * D + 5, rng)

    def check_component(w: Block):
        out = apply_lifted(lifted, w)
        cut = D - lifted.kappa  # the member-path image starts at position kappa
        if out != _member_path_image(lifted, w)[cut : cut + len(out)]:
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
        rt_windows = sample_core_windows(core_g, rt_length, rays, rng, walks)

        def check_round_trip(w: Block):
            back = apply_lifted(inverse_lifted, apply_lifted(lifted, w))
            if back != w[D + D2 : len(w) - D - D2]:
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
    return SquareReport(tuple(checks))
