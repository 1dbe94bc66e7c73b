"""Seeded input generators for the ``ladder`` and ``wide`` workloads.

Graphs are produced as plain ``(symbols, vertices, edges)`` triples of
names so that a generated input can be digested and recorded without the
package; :func:`to_graph` turns a triple into a ``LabeledGraph`` through
the package's own validating builder.

Every function here is a pure function of its arguments: the same
parameters give the same graph, on every machine and Python version that
keeps ``random.Random`` stable for integer seeds.
"""

from __future__ import annotations

import hashlib
import json
import random

SYMBOLS = "abcdefgh"

Triple = tuple[tuple[str, ...], tuple[str, ...], tuple[tuple[str, str, str], ...]]


def _trim(n: int, edges: list[tuple[int, int, int]]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Drop vertices with no outgoing or no incoming edge until none is left."""
    alive = set(range(n))
    while True:
        outs = {u for u, _, _ in edges}
        ins = {v for _, _, v in edges}
        dead = {v for v in alive if v not in outs or v not in ins}
        if not dead:
            return sorted(alive), edges
        alive -= dead
        edges = [e for e in edges if e[0] in alive and e[2] in alive]


def _named(n_sym: int, keep: list[int], edges: list[tuple[int, int, int]], prefix: str = "v") -> Triple:
    names = {v: f"{prefix}{v}" for v in keep}
    return (
        tuple(SYMBOLS[:n_sym]),
        tuple(names[v] for v in keep),
        tuple((names[u], SYMBOLS[a], names[v]) for u, a, v in edges),
    )


def ladder_graph(seed: int, n: int, k: int, right_resolving: bool) -> Triple:
    """One ladder presentation: ``n`` raw vertices over ``k`` symbols.

    Each vertex gets a random nonempty label set; each label gets one
    random target (right-resolving) or one or two distinct targets
    (otherwise).  The graph is then trimmed to its essential part, so the
    result may have fewer than ``n`` vertices.
    """
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for a in sorted(rng.sample(range(k), rng.randint(1, k))):
            fan = 1 if right_resolving else rng.randint(1, 2)
            for v in sorted(rng.sample(range(n), fan)):
                edges.append((u, a, v))
    keep, edges = _trim(n, edges)
    return _named(k, keep, edges)


def follower_separated(g: Triple) -> bool:
    """Whether no two vertices of a right-resolving graph share a follower set.

    Moore refinement from the out-label sets, written independently of the
    package so that it can also check the package's own partition.
    """
    return len(set(follower_classes(g))) == len(g[1])


def follower_classes(g: Triple) -> list[int]:
    """Follower-class number of each vertex of a right-resolving graph."""
    _, verts, edges = g
    index = {v: i for i, v in enumerate(verts)}
    delta = {(index[u], a): index[v] for u, a, v in edges}
    labels = [tuple(sorted(a for (u, a) in delta if u == v)) for v in range(len(verts))]
    block = labels
    while True:
        sig = [(block[v], tuple(block[delta[(v, a)]] for a in labels[v])) for v in range(len(verts))]
        ids = {s: i for i, s in enumerate(sorted(set(sig), key=repr))}
        new = [ids[s] for s in sig]
        if len(set(new)) == len(set(block)):
            return [ids[s] for s in sig]
        block = new


def follower_included(g: Triple, x: str, y: str) -> bool:
    """Whether every word out of vertex ``x`` also leaves vertex ``y``.

    A search over pairs of a right-resolving graph, written independently
    of the package so that it can check ``follower_contains``.
    """
    delta = {(u, a): v for u, a, v in g[2]}
    labels: dict[str, set] = {v: set() for v in g[1]}
    for u, a, _ in g[2]:
        labels[u].add(a)
    seen, todo = {(x, y)}, [(x, y)]
    while todo:
        p, q = todo.pop()
        if not labels[p] <= labels[q]:
            return False
        for a in labels[p]:
            pair = (delta[(p, a)], delta[(q, a)])
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


def base_graph(seed: int, n: int, k: int) -> Triple:
    """A trimmed right-resolving base graph for the ``wide`` lifts.

    Each of ``n`` raw vertices emits a random nonempty subset of the ``k``
    symbols, one random target each, so base vertices tend to differ in
    their follower sets.  The calibration keeps only follower-separated
    draws of the wanted size.
    """
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for a in sorted(rng.sample(range(k), rng.randint(1, k))):
            edges.append((u, a, rng.randrange(n)))
    keep, edges = _trim(n, edges)
    return _named(k, keep, edges, prefix="b")


def lift(base: Triple, fold: int, seed: int) -> Triple:
    """A seeded ``fold``-fold lift of a right-resolving base graph.

    Vertex (v, i) is named ``v.i``; each base edge u -a-> v becomes the
    edges (u, i) -a-> (v, p(i)) for a random permutation p of the fold.
    The lift is right-resolving and each lifted vertex has the follower
    set of its base vertex, so every follower class has ``fold`` members.
    Vertices are listed in breadth-first order of the undirected graph,
    so each vertex after the first of its component has an earlier
    neighbour.
    """
    rng = random.Random(seed)
    symbols, verts, edges = base
    lifted = []
    for u, a, v in edges:
        perm = list(range(fold))
        rng.shuffle(perm)
        lifted.extend((f"{u}.{i}", a, f"{v}.{perm[i]}") for i in range(fold))
    names = [f"{v}.{i}" for v in verts for i in range(fold)]
    adjacent: dict[str, list[str]] = {name: [] for name in names}
    for u, _, v in lifted:
        adjacent[u].append(v)
        adjacent[v].append(u)
    order: dict[str, int] = {}
    for root in names:
        if root in order:
            continue
        order[root] = len(order)
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adjacent[x]:
                    if y not in order:
                        order[y] = len(order)
                        nxt.append(y)
            frontier = nxt
    lifted.sort(key=lambda e: (order[e[0]], e[1]))
    return symbols, tuple(sorted(names, key=order.__getitem__)), tuple(lifted)


def with_tendrils(g: Triple, count: int, length: int, seed: int) -> Triple:
    """``g`` plus ``count`` dead-end chains of ``length`` extra vertices.

    Half of the chains hang off the graph (no way back), half lead into
    it (no way in), so trimming must remove every added vertex.
    """
    rng = random.Random(seed)
    symbols, verts, edges = g
    extra_v, extra_e = [], []
    for c in range(count):
        chain = [f"t{c}.{j}" for j in range(length)]
        extra_v.extend(chain)
        anchor = rng.choice(verts)
        a = rng.choice(symbols)
        path = [anchor] + chain if c % 2 == 0 else chain + [anchor]
        for x, y in zip(path, path[1:]):
            extra_e.append((x, a, y))
    return symbols, verts + tuple(extra_v), edges + tuple(extra_e)


def permuted(g: Triple, seed: int) -> Triple:
    """The same graph with its vertex list and edge list shuffled."""
    rng = random.Random(seed)
    symbols, verts, edges = g
    verts, edges = list(verts), list(edges)
    rng.shuffle(verts)
    rng.shuffle(edges)
    return symbols, tuple(verts), tuple(edges)


def relabelled(g: Triple, seed: int) -> Triple:
    """Negative control: one edge moved to another symbol.

    The edge is chosen so that the new triple is not already present; the
    label multiset changes, so the result is never label-isomorphic to
    ``g``.
    """
    rng = random.Random(seed)
    symbols, verts, edges = g
    present = set(edges)
    for k in rng.sample(range(len(edges)), len(edges)):
        u, a, v = edges[k]
        for b in symbols:
            if b != a and (u, b, v) not in present:
                out = list(edges)
                out[k] = (u, b, v)
                return symbols, verts, tuple(out)
    raise ValueError("no edge can be relabelled")


def digest(g: Triple) -> str:
    text = json.dumps([list(g[0]), list(g[1]), [list(e) for e in g[2]]], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def to_data(g: Triple) -> dict:
    symbols, verts, edges = g
    return {
        "format": 1,
        "alphabet": list(symbols),
        "vertices": list(verts),
        "edges": [{"from": u, "label": a, "to": v} for u, a, v in edges],
    }


def to_graph(g: Triple):
    from soficovers.graphs import build_graph

    return build_graph(to_data(g))
