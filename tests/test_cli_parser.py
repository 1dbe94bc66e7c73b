"""The one-command parser behaves exactly as the full parser.

``main`` builds only the subparser its first argument names; every other
first argument gets the full parser.  Each case here runs the same argv
through ``build_parser(command)`` and ``build_parser()`` in this
interpreter and compares the namespace, stdout, stderr and exit code,
so the comparison holds whatever argparse version formats the text.
"""

from __future__ import annotations

import pytest

from soficovers import cli
from soficovers.cli import COMMANDS, build_parser, main

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
        ["g.json", "--max-period", "0", "--max-tail", "3"], [], ["g.json", "--max-tail", "-1"]
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
    assert command_names(build_parser("nope")) == names


@pytest.mark.parametrize("command", sorted(CASES))
def test_one_command_parser_matches_full_parser(command, capsys):
    valid, missing, bad = CASES[command]
    for tail in (["-h"], valid, missing, bad, valid + ["--nope"]):
        argv = [command, *tail]
        alone = outcome(build_parser(command).parse_args, argv, capsys)
        full = outcome(build_parser().parse_args, argv, capsys)
        assert alone == full, argv
    args, code, _, _ = outcome(build_parser(command).parse_args, [command, *valid], capsys)
    assert code is None and args.command == command
    for tail in (missing, bad, valid + ["--nope"]):
        assert outcome(build_parser(command).parse_args, [command, *tail], capsys)[1] == 2


@pytest.mark.parametrize("argv", TOP_LEVEL, ids=lambda argv: " ".join(argv) or "empty")
def test_top_level_matches_full_parser(argv, capsys):
    assert outcome(main, argv, capsys) == outcome(build_parser().parse_args, argv, capsys)


def test_top_level_help_lists_every_command(capsys):
    _, code, out, _ = outcome(main, ["--help"], capsys)
    assert code == 0
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("    ")}
    assert {c.name for c in COMMANDS} <= listed


def test_main_builds_only_the_named_command(monkeypatch, tmp_path, capsys):
    built = []

    def spy(command=None):
        parser = build_parser(command)
        built.append((command, command_names(parser)))
        return parser

    monkeypatch.setattr(cli, "build_parser", spy)
    path = tmp_path / "g.json"
    path.write_text("{}")
    assert main(["check", str(path)]) == 2
    assert built == [("check", ["check"])]
