"""Byte-for-byte CLI outputs on the bundled base fixtures.

``tests/golden/`` holds the standard output of ``past-cover``,
``future-cover``, ``extended-future-cover``, ``gprime`` and
``fibers --period W --json`` (every realizable period up to length 3) on
each base fixture, plus ``MANIFEST.json`` with the exit code of every
case.  The products carry the stable-core witnesses and the fiber-core
seed descriptions, so any change to how those are chosen shows here.

Refresh the corpus only for an intended output change::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from soficovers import BASE_FIXTURES, load_fixture
from soficovers.analysis import periodic_points
from soficovers.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
CONSTRUCTIONS = ("past-cover", "future-cover", "extended-future-cover", "gprime")
FIBER_PERIOD = 3


def golden_cases() -> list[tuple[str, list[str]]]:
    """(case name, CLI argv) pairs; the graph file is ``<fixture>.json``."""
    cases = []
    for name in BASE_FIXTURES:
        path = f"{name}.json"
        for command in CONSTRUCTIONS:
            cases.append((f"{name}.{command}", [command, path]))
        g = load_fixture(name)
        for p in periodic_points(g, FIBER_PERIOD):
            word = ",".join(g.symbols[a] for a in p.word)
            cases.append(
                (f"{name}.fibers.{word}", ["fibers", path, "--period", word, "--json"])
            )
    return cases


def write_fixtures(directory: Path) -> None:
    for name in BASE_FIXTURES:
        ref = resources.files("soficovers") / "fixtures" / f"{name}.json"
        (directory / f"{name}.json").write_bytes(ref.read_bytes())


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
