"""Byte-for-byte CLI outputs on the bundled base fixtures.

``tests/golden/`` holds the standard output of ``check --json``,
``subset`` in both modes, ``past-cover``, ``future-cover``,
``extended-future-cover``, ``gpp`` (full, and seeded from the first
vertex and from the last vertex plus the first two), ``gprime``,
``iso --json`` against a seeded permutation of the fixture,
``export --dot``, and ``fibers --period W --json``
(every realizable period up to length 3) on each base fixture; of
``lift --square`` and ``verify --square --diagrams --json`` on the
2-block recoding square of ``example_b``; of ``lift --square`` and
``verify --square --json`` on the 2-block recoding squares of
``example_a`` and ``even_shift``; of ``verify --square --json`` on two
broken copies of the ``example_b`` square (one label-code rule with a
wrong output, one edge-code rule missing), whose failure details name
windows, cycles and blocks; of ``verify --square --diagrams --json`` on
the 2-block recoding square of ``chain_stabilization``, whose connector
windows join rays of different periods; of ``verify-paper --json``,
whose criterion details count the periodic words each check swept; of
``iso --json`` on two graphs with nontrivial automorphisms, the two-sheet
disjoint union of ``example_b`` and a cyclic 3-fold lift of
``example_a``, each against a seeded shuffle, which pins the mapping the
search returns when several exist; of ``iso --json`` on a 200-vertex
``a``-ring with one ``b`` loop, against itself, against a seeded
shuffle, whose colour refinement splits off one vertex at a time, and
against a shuffled copy with one ``a``-edge relabelled ``b``, which is
not isomorphic to it (exit 1); of ``iso --json`` on ``example_a`` with
one more symbol, on no edge, against the seeded permutation of
``example_a``, which is isomorphic to it; of ``extended-future-cover`` on
``nr70.json``, a genuine extension whose factor map has fibres of 3 and 2,
which pins the rule that names each witness by a base idempotent word; of
``export --dot --name`` on a small graph whose symbol, vertex and graph
names hold double quotes, backslashes and non-ASCII characters; and
``MANIFEST.json`` with the exit code of every case.  Each square file is ``<fixture>.square.json``,
each broken copy ``example_b.<kind>.square.json``.  The products carry the stable-core witnesses
and the fiber-core seed descriptions, so any change to how those are
chosen shows here.

Refresh the corpus only for an intended output change::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from soficovers import BASE_FIXTURES, graph_from_parts, load_fixture
from soficovers.analysis import periodic_points
from soficovers.cli import main
from soficovers.codes import higher_block
from soficovers.graphs import LabeledGraph
from soficovers.io import graph_to_data, square_to_data

GOLDEN_DIR = Path(__file__).parent / "golden"
COMMANDS = (
    ("check", ["check", "{path}", "--json"]),
    ("subset.full", ["subset", "{path}", "--mode", "full"]),
    ("subset.reachable-from-full", ["subset", "{path}", "--mode", "reachable-from-full"]),
    ("past-cover", ["past-cover", "{path}"]),
    ("future-cover", ["future-cover", "{path}"]),
    ("extended-future-cover", ["extended-future-cover", "{path}"]),
    ("gpp", ["gpp", "{path}"]),
    ("gprime", ["gprime", "{path}"]),
    ("iso", ["iso", "{path}", "{twin}", "--json"]),
    ("export", ["export", "{path}", "--dot"]),
)
FIBER_PERIOD = 3
SQUARE = "example_b.square.json"  # higher_block(example_b, 2)
SQUARE_FIXTURES = ("example_a", "example_b", "even_shift", "chain_stabilization")
BROKEN_SQUARES = ("bad-label-rule", "missing-edge-rule")
LIFTS = (("example_b", "sheets2", 2, 0), ("example_a", "lift3", 3, 1))  # fixture, tag, fold, voltage step
RING = 200
# The bench pool's nr70 candidate 1 (ladder generator seed 13000321): its
# future cover has 6 vertices and its extended cover 9.
NR70 = graph_from_parts(
    "ab",
    ["v1", "v2", "v3", "v4", "v5", "v6"],
    [
        ("v1", "a", "v5"), ("v1", "b", "v1"), ("v1", "b", "v2"), ("v2", "a", "v2"),
        ("v2", "a", "v6"), ("v2", "b", "v4"), ("v2", "b", "v5"), ("v3", "a", "v2"),
        ("v3", "a", "v6"), ("v4", "b", "v6"), ("v5", "b", "v5"), ("v5", "b", "v6"),
        ("v6", "a", "v3"), ("v6", "a", "v5"),
    ],
)
# Names that DOT must escape (a double quote, a backslash) or pass through
# (non-ASCII), in symbols, vertices and the graph name.
QUOTED = graph_from_parts(
    ['say "a"', "b\\", "\u00e9"],
    ['"p"', "q\\r", "\u00fcber", "plain \u2192 end"],
    [
        ('"p"', 'say "a"', "q\\r"), ('"p"', "b\\", '"p"'), ("q\\r", "\u00e9", "\u00fcber"),
        ("\u00fcber", 'say "a"', "plain \u2192 end"), ("plain \u2192 end", "b\\", '"p"'),
        ("plain \u2192 end", "\u00e9", '"p"'),
    ],
)
QUOTED_NAME = 'G "\u00e9" \\ 1'


def golden_cases() -> list[tuple[str, list[str]]]:
    """(case name, CLI argv) pairs; the graph file is ``<fixture>.json``."""
    cases = []
    for name in BASE_FIXTURES:
        path = f"{name}.json"
        for case, argv in COMMANDS:
            cases.append(
                (
                    f"{name}.{case}",
                    [a.format(path=path, twin=f"{name}.permuted.json") for a in argv],
                )
            )
        g = load_fixture(name)
        first, second = g.vertices[0], g.vertices[min(1, len(g.vertices) - 1)]
        for specs in ([first], [g.vertices[-1], f"{first},{second}"]):
            argv = ["gpp", path, "--mode", "seeded"]
            for spec in specs:
                argv += ["--seed", spec]
            cases.append((f"{name}.gpp.seeded.{'+'.join(specs)}", argv))
        for p in periodic_points(g, FIBER_PERIOD):
            word = ",".join(g.symbols[a] for a in p.word)
            cases.append(
                (f"{name}.fibers.{word}", ["fibers", path, "--period", word, "--json"])
            )
    cases.append(("example_b.square.lift", ["lift", "--square", SQUARE]))
    cases.append(
        ("example_b.square.verify", ["verify", "--square", SQUARE, "--diagrams", "--json"])
    )
    for name in ("example_a", "even_shift"):
        square = f"{name}.square.json"
        cases.append((f"{name}.square.lift", ["lift", "--square", square]))
        cases.append((f"{name}.square.identities", ["verify", "--square", square, "--json"]))
    for kind in BROKEN_SQUARES:
        cases.append(
            (
                f"example_b.square.{kind}",
                ["verify", "--square", f"example_b.{kind}.square.json", "--json"],
            )
        )
    cases.append(
        (
            "chain_stabilization.square.verify",
            ["verify", "--square", "chain_stabilization.square.json", "--diagrams", "--json"],
        )
    )
    cases.append(("verify-paper", ["verify-paper", "--json"]))
    for name, tag, _, _ in LIFTS:
        lift = f"{name}.{tag}"
        cases.append((f"{lift}.iso", ["iso", f"{lift}.json", f"{lift}.permuted.json", "--json"]))
    ring = f"ring{RING}"
    cases.append((f"{ring}.iso.self", ["iso", f"{ring}.json", f"{ring}.json", "--json"]))
    cases.append((f"{ring}.iso", ["iso", f"{ring}.json", f"{ring}.permuted.json", "--json"]))
    cases.append((f"{ring}.iso.control", ["iso", f"{ring}.json", f"{ring}.control.json", "--json"]))
    unused = ["iso", "example_a.unused.json", "example_a.permuted.json", "--json"]
    cases.append(("example_a.unused.iso", unused))
    cases.append(("nr70.extended-future-cover", ["extended-future-cover", "nr70.json"]))
    cases.append(("quoted.export", ["export", "quoted.json", "--dot", "--name", QUOTED_NAME]))
    return cases


def shuffled(data: dict, seed: int) -> dict:
    """The graph data with its alphabet, vertices and edges shuffled."""
    rng = random.Random(seed)
    for key in ("alphabet", "vertices", "edges"):
        rng.shuffle(data[key])
    return data


def permuted_data(name: str) -> dict:
    """The fixture shuffled by a seed derived from its position in
    BASE_FIXTURES."""
    return shuffled(graph_to_data(load_fixture(name)), BASE_FIXTURES.index(name))


def cyclic_lift(g: LabeledGraph, fold: int, step: int) -> LabeledGraph:
    """The ``fold``-sheet cyclic lift of g: vertex ``v.i`` for sheet i,
    and edge k from sheet i goes to sheet ``i + step * k`` mod ``fold``.
    Step 0 gives the disjoint union of ``fold`` copies.  Shifting every
    sheet by one is an automorphism either way."""
    n = len(g.vertices)
    return LabeledGraph(
        g.symbols,
        tuple(f"{v}.{i}" for i in range(fold) for v in g.vertices),
        tuple(
            (u + i * n, a, v + (i + step * k) % fold * n)
            for i in range(fold)
            for k, (u, a, v) in enumerate(g.edges)
        ),
    )


def looped_ring(n: int) -> LabeledGraph:
    """An ``a``-cycle through ``r0``, ..., ``r{n-1}`` with one ``b`` loop at
    ``r0``.  Its only automorphism is the identity, and colour refinement
    tells the vertices apart by their distance to the loop."""
    return LabeledGraph(
        ("a", "b"),
        tuple(f"r{i}" for i in range(n)),
        tuple((i, 0, (i + 1) % n) for i in range(n)) + ((0, 1, 0),),
    )


def broken_square_data(kind: str) -> dict:
    """The 2-block recoding square of example_b with one rule broken:
    the label-code rule on ``2 2 2`` sent to another symbol, or the first
    edge-code rule deleted."""
    data = square_to_data(higher_block(load_fixture("example_b"), 2))
    if kind == "bad-label-rule":
        code = data["label_code"]
        rule = next(r for r in code["rules"] if r["block"] == ["2", "2", "2"])
        rule["out"] = next(s for s in code["output_alphabet"] if s != rule["out"])
    else:
        del data["edge_code"]["rules"][0]
    return data


def write_fixtures(directory: Path) -> None:
    for name in BASE_FIXTURES:
        ref = resources.files("soficovers") / "fixtures" / f"{name}.json"
        (directory / f"{name}.json").write_bytes(ref.read_bytes())
        (directory / f"{name}.permuted.json").write_text(
            json.dumps(permuted_data(name), indent=2) + "\n"
        )
    for name in SQUARE_FIXTURES:
        square = square_to_data(higher_block(load_fixture(name), 2))
        (directory / f"{name}.square.json").write_text(json.dumps(square, indent=2) + "\n")
    for kind in BROKEN_SQUARES:
        (directory / f"example_b.{kind}.square.json").write_text(
            json.dumps(broken_square_data(kind), indent=2) + "\n"
        )
    for seed, (name, tag, fold, step) in enumerate(LIFTS):
        data = graph_to_data(cyclic_lift(load_fixture(name), fold, step))
        (directory / f"{name}.{tag}.json").write_text(json.dumps(data, indent=2) + "\n")
        (directory / f"{name}.{tag}.permuted.json").write_text(
            json.dumps(shuffled(data, seed), indent=2) + "\n"
        )
    data = graph_to_data(looped_ring(RING))
    (directory / f"ring{RING}.json").write_text(json.dumps(data, indent=2) + "\n")
    (directory / f"ring{RING}.permuted.json").write_text(
        json.dumps(shuffled(data, RING), indent=2) + "\n"
    )
    control = graph_to_data(looped_ring(RING))
    control["edges"][RING // 2]["label"] = "b"
    (directory / f"ring{RING}.control.json").write_text(
        json.dumps(shuffled(control, RING + 1), indent=2) + "\n"
    )
    unused = graph_to_data(load_fixture("example_a"))
    unused["alphabet"].append("unused")
    (directory / "example_a.unused.json").write_text(json.dumps(unused, indent=2) + "\n")
    (directory / "nr70.json").write_text(json.dumps(graph_to_data(NR70), indent=2) + "\n")
    (directory / "quoted.json").write_text(json.dumps(graph_to_data(QUOTED), indent=2) + "\n")


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


CASES = golden_cases()


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_fixtures(directory)
    return directory


def test_manifest_lists_every_case():
    manifest = json.loads((GOLDEN_DIR / "MANIFEST.json").read_text())
    assert sorted(manifest) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, fixture_dir, monkeypatch):
    monkeypatch.chdir(fixture_dir)
    manifest = json.loads((GOLDEN_DIR / "MANIFEST.json").read_text())
    code, out = run_case(argv)
    assert code == manifest[name]
    assert out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, argv in CASES:
                code, out = run_case(argv)
                manifest[name] = code
                (GOLDEN_DIR / f"{name}.out").write_bytes(out.encode())
        finally:
            os.chdir(here)
    (GOLDEN_DIR / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
