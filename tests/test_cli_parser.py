"""The command-line parser: every command's arguments, and one parser per process.

``main`` parses with ``build_parser()``, which builds all 13 commands on
its first call and returns that same parser for the rest of the process.
Each command's case runs ``-h``, a valid argv, a missing argument, a bad
value and an unknown flag through the kept parser and through a freshly
built one, with ``COLUMNS=80``, and compares the namespace, stdout,
stderr and exit code, so the comparison holds whatever argparse version
formats the text.  A kept parser must carry nothing from one call to the
next: repeated flags, a failed call and a later valid one all behave as
in a fresh process.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import soficovers
from soficovers import load_fixture
from soficovers.cli import COMMANDS, build_parser, main
from soficovers.graphs import LabeledGraph
from soficovers.io import graph_to_data

# command -> (valid argv, missing argument, bad value); each argv follows the command name
CASES = {
    "check": (["g.json", "--budget", "7", "--json"], [], ["g.json", "--budget", "x"]),
    "subset": (["g.json", "--mode", "full", "-o", "out.json"], [], ["g.json", "--mode", "nope"]),
    "past-cover": (["g.json", "--budget", "9"], [], ["g.json", "--budget", "0"]),
    "future-cover": (
        ["g.json", "--output", "o.json"], ["--budget", "5"], ["g.json", "--budget", "-1"]
    ),
    "extended-future-cover": (["g.json"], [], ["g.json", "--budget", "1.5"]),
    "gpp": (
        ["g.json", "--mode", "seeded", "--seed", "a,b", "--seed", "c"],
        ["--mode", "full"],
        ["g.json", "--mode", "partial"],
    ),
    "gprime": (
        ["g.json", "--max-tail", "3"], [], ["g.json", "--max-tail", "-1"]
    ),
    "fibers": (["g.json", "--period", "0,1", "--json"], ["g.json"], ["g.json", "--period"]),
    "lift": (
        ["g.json", "--graph-h", "h.json", "--phi", "p", "--phi-inv", "q", "--psi", "r",
         "--psi-inv", "s", "--no-verify"],
        ["--square"],
        ["--square", "s.json", "--budget", "none"],
    ),
    "verify": (
        ["--square", "s.json", "--diagrams", "--max-window", "0", "--json"],
        ["--phi"],
        ["--square", "s.json", "--max-window", "-2"],
    ),
    "verify-paper": (
        ["--criterion", "3", "--random-graphs", "0", "--seed", "-4"],
        ["--seed"],
        ["--criterion", "9"],
    ),
    "iso": (["a.json", "b.json", "--json"], ["a.json"], ["a.json", "b.json", "c.json"]),
    "export": (["g.json", "--dot", "--name", "H"], ["g.json"], ["g.json", "--dot", "--name"]),
}
TOP_LEVEL = ([], ["--help"], ["-h"], ["nope"], ["chec"], ["--json", "check"])


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def command_names(parser):
    return list(parser._subparsers._group_actions[0].choices)


def outcome(parse, argv, capsys):
    """What one parse does: (namespace or None, exit code or None, stdout, stderr)."""
    capsys.readouterr()
    try:
        args, code = parse(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return args, code, captured.out, captured.err


def test_full_parser_has_every_command():
    names = [c.name for c in COMMANDS]
    assert len(names) == 13 and sorted(CASES) == sorted(names)
    assert command_names(build_parser()) == names


@pytest.mark.parametrize("command", sorted(CASES))
def test_kept_parser_parses_each_command(command, capsys):
    valid, missing, bad = CASES[command]
    for tail in (["-h"], valid, missing, bad, valid + ["--nope"]):
        argv = [command, *tail]
        kept = outcome(build_parser().parse_args, argv, capsys)
        assert kept == outcome(build_parser.__wrapped__().parse_args, argv, capsys), argv
    args, code, _, _ = outcome(build_parser().parse_args, [command, *valid], capsys)
    assert code is None and args.command == command
    assert outcome(build_parser().parse_args, [command, "-h"], capsys)[1] == 0
    for tail in (missing, bad, valid + ["--nope"]):
        assert outcome(build_parser().parse_args, [command, *tail], capsys)[1] == 2


@pytest.mark.parametrize("argv", TOP_LEVEL, ids=lambda argv: " ".join(argv) or "empty")
def test_top_level_matches_full_parser(argv, capsys):
    done = outcome(main, argv, capsys)
    assert done == outcome(build_parser.__wrapped__().parse_args, argv, capsys)
    assert done[1] == (0 if argv in (["--help"], ["-h"]) else 2)


def test_top_level_help_lists_every_command(capsys):
    _, code, out, _ = outcome(main, ["--help"], capsys)
    assert code == 0
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("    ")}
    assert {c.name for c in COMMANDS} <= listed


def test_main_keeps_one_parser(capsys):
    build_parser.cache_clear()
    for argv in (["check", "--help"], ["check", "-h"], ["nope"], ["--help"], [], ["chec"]):
        outcome(main, argv, capsys)
    assert build_parser.cache_info().misses == 1


def two_vertex_graph(tmp_path):
    """``example_b`` with its vertices named "0" and "1"."""
    b = load_fixture("example_b")
    path = tmp_path / "g01.json"
    path.write_text(json.dumps(graph_to_data(LabeledGraph(b.symbols, ("0", "1"), b.edges))))
    return str(path)


def run_in_process(argv, capsys):
    """(exit code, stdout, stderr without the elapsed time) of ``main``."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, without_time(captured.err)


def without_time(err):
    return re.sub(r" \(\d+ ms\)$", "", err, flags=re.M)


def run_fresh(argv):
    """The same triple from a new ``python -m soficovers`` process."""
    path = [str(Path(soficovers.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "soficovers", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    return done.returncode, done.stdout, without_time(done.stderr)


def test_kept_parser_carries_nothing_between_calls(tmp_path, capsys):
    graph = two_vertex_graph(tmp_path)
    seeded = ["gpp", graph, "--mode", "seeded", "--seed", "0", "--seed", "1"]
    first = run_in_process(seeded, capsys)
    second = run_in_process(seeded, capsys)
    assert first[0] == 0 and first == second
    assert build_parser().parse_args(seeded).seed == ["0", "1"]
    assert json.loads(first[1])["provenance"]["members"][:2] == [["0"], ["1"]]

    valid = ["gpp", graph, "--mode", "seeded", "--seed", "1"]
    fresh = run_fresh(valid)
    assert fresh[0] == 0
    failing = (
        ["gpp", graph, "--mode", "partial"],  # argparse rejects the choice
        ["gpp", graph, "--mode", "seeded"],  # the handler rejects the seeds
    )
    for bad in failing:
        assert run_in_process(bad, capsys)[0] == 2
        assert run_in_process(valid, capsys) == fresh
