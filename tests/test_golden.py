"""Byte-for-byte CLI outputs on the bundled base fixtures.

``tests/golden/`` holds the standard output of ``check --json``,
``subset`` in both modes, ``past-cover``, ``future-cover``,
``extended-future-cover``, ``gpp``, ``gprime``, ``iso --json`` against a
seeded permutation of the fixture, and ``fibers --period W --json``
(every realizable period up to length 3) on each base fixture; of
``lift --square`` and ``verify --square --diagrams --json`` on the
2-block recoding square of ``example_b``; and ``MANIFEST.json`` with the
exit code of every case.  The products carry the stable-core witnesses
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

from soficovers import BASE_FIXTURES, load_fixture
from soficovers.analysis import periodic_points
from soficovers.cli import main
from soficovers.codes import higher_block
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
)
FIBER_PERIOD = 3
SQUARE = "example_b.square.json"  # higher_block(example_b, 2).square


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
        for p in periodic_points(g, FIBER_PERIOD):
            word = ",".join(g.symbols[a] for a in p.word)
            cases.append(
                (f"{name}.fibers.{word}", ["fibers", path, "--period", word, "--json"])
            )
    cases.append(("example_b.square.lift", ["lift", "--square", SQUARE]))
    cases.append(
        ("example_b.square.verify", ["verify", "--square", SQUARE, "--diagrams", "--json"])
    )
    return cases


def permuted_data(name: str) -> dict:
    """The fixture with its alphabet, vertices and edges shuffled by a seed
    derived from its position in BASE_FIXTURES."""
    data = graph_to_data(load_fixture(name))
    rng = random.Random(BASE_FIXTURES.index(name))
    for key in ("alphabet", "vertices", "edges"):
        rng.shuffle(data[key])
    return data


def write_fixtures(directory: Path) -> None:
    for name in BASE_FIXTURES:
        ref = resources.files("soficovers") / "fixtures" / f"{name}.json"
        (directory / f"{name}.json").write_bytes(ref.read_bytes())
        (directory / f"{name}.permuted.json").write_text(
            json.dumps(permuted_data(name), indent=2) + "\n"
        )
    square = square_to_data(higher_block(load_fixture("example_b"), 2).square)
    (directory / SQUARE).write_text(json.dumps(square, indent=2) + "\n")


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
