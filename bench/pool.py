"""Calibrated input pools of the ``ladder`` and ``wide`` workloads.

A *class* is one input size class.  For ``ladder`` it is a rung: right-
resolving or not, an alphabet size and a target transition-monoid size.
For ``wide`` it is a lift size: base vertices, raw base vertices, alphabet
size.  ``pool.json`` holds, per class, a few generator seeds whose inputs
fall in that class and cost about the same to process, together with the
sizes and verdicts the package computed for them when the pool was made.

A run draws one candidate per class from its ``--seed``.  So set-up only
regenerates graphs, checked against their digests, and builds no monoid;
the recorded figures double as expected outputs; and runs with different
seeds do comparable work.  ``python3 bench/calibrate.py`` rebuilds the
pool; the runs then measure other inputs, so the baseline must be taken
again.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import generators as gen

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

# Right-resolving rungs at or below this monoid size also run ``gprime``.
GPRIME_CEILING = 800
# Rungs at or below this monoid size are checked against the |M|^2
# tail-iteration oracle.
ORACLE_CEILING = 300
CANDIDATES = 4

WIDE_FOLD = 10
WIDE_TENDRILS = (8, 3)  # dead-end chains added before essentialize: count, length
# follower_contains pairs per graph: the first lies in one fiber, so its
# containment holds; containment fails for the others.
WIDE_PAIRS = 3


@dataclass(frozen=True)
class Rung:
    name: str
    right_resolving: bool
    symbols: int
    monoid_target: int

    @property
    def gprime(self) -> bool:
        return self.right_resolving and self.monoid_target <= GPRIME_CEILING


@dataclass(frozen=True)
class WideSize:
    name: str
    base_vertices: int
    raw_vertices: int
    symbols: int


def _rungs() -> tuple[Rung, ...]:
    rr_targets = (50, 70, 100, 140, 200, 280, 400, 560, 800, 1130, 1600)
    other_targets = (50, 70, 100, 140, 200, 280, 400, 560)
    rungs = [Rung(f"rr{m}", True, 2 + i % 2, m) for i, m in enumerate(rr_targets)]
    rungs += [Rung(f"nr{m}", False, 2 + (i + 1) % 2, m) for i, m in enumerate(other_targets)]
    return tuple(rungs)


RUNGS = _rungs()
WIDE_SIZES = (
    WideSize("w300", 30, 45, 3),
    WideSize("w600", 60, 90, 2),
    WideSize("w900", 90, 135, 2),
)


def load() -> dict:
    return json.loads(POOL_PATH.read_text())


def choose(seed: int, pool: dict, workload: str, classes) -> list:
    """One pool candidate per class, drawn from ``seed``."""
    rng = random.Random(seed)
    return [(c, rng.choice(pool[workload][c.name])) for c in classes]


def ladder_input(cand: dict):
    g = gen.ladder_graph(cand["seed"], cand["raw_vertices"], cand["symbols"],
                         cand["right_resolving"])
    _same(gen.digest(g), cand["digest"], cand)
    return g


def wide_inputs(size: WideSize, seed: int) -> SimpleNamespace:
    """Base, lift and the lift's variants for one wide candidate seed."""
    base = gen.base_graph(seed, size.raw_vertices, size.symbols)
    lifted = gen.lift(base, WIDE_FOLD, seed + 1)
    base_of = [name.split(".")[0] for name in lifted[1]]
    pick = random.Random(seed + 5)
    u = pick.randrange(len(base_of))
    pairs = [(u, pick.choice([v for v, b in enumerate(base_of) if v != u and b == base_of[u]]))]
    while len(pairs) < WIDE_PAIRS:
        x, y = pick.randrange(len(base_of)), pick.randrange(len(base_of))
        if not gen.follower_included(base, base_of[x], base_of[y]):
            pairs.append((x, y))
    return SimpleNamespace(
        base=base,
        lift=lifted,
        raw=gen.with_tendrils(lifted, *WIDE_TENDRILS, seed + 2),
        permuted=gen.permuted(lifted, seed + 3),
        control=gen.relabelled(lifted, seed + 4),
        pairs=pairs,
    )


def wide_input(size: WideSize, cand: dict) -> SimpleNamespace:
    g = wide_inputs(size, cand["seed"])
    _same(gen.digest(g.lift), cand["digest"], cand)
    return g


def _same(got: str, want: str, cand: dict) -> None:
    if got != want:
        raise ValueError(f"pool candidate {cand['seed']} regenerates a different graph")
