"""Malformed inputs end in one error line and exit code 2.

Each case writes one broken graph, block code or square file, or passes
a broken ``gpp`` seed, and runs it through ``cli.main``.  Two cases are
JSON that Python's parser refuses although it is well formed: an integer
literal past the digit limit and arrays nested past the recursion limit.  The run must
exit 2, print nothing on stdout, and print exactly one stderr line: it
starts with ``error:`` and names what is wrong, so no traceback escapes.
Graph files go through ``check``; code and square files through
``verify --square``, with the broken code standing in for the label code.
One square is well formed but over a graph that is not right-resolving;
it goes through ``lift --square``, whose conjugacy lift needs
right-resolving graphs.
"""

from __future__ import annotations

import json

import pytest

from soficovers import (
    graph_from_parts,
    graph_to_data,
    higher_block,
    identity_square,
    load_fixture,
    square_to_data,
)
from soficovers.cli import main


def graph_data(**change):
    data = {
        "format": 1,
        "alphabet": ["0"],
        "vertices": ["u"],
        "edges": [{"from": "u", "label": "0", "to": "u"}],
    }
    data.update(change)
    return data


def code_data(**change):
    data = {
        "format": 1,
        "window_radius": 0,
        "input_alphabet": ["a"],
        "output_alphabet": ["x"],
        "rules": [{"block": ["a"], "out": "x"}],
    }
    data.update(change)
    return data


def square_data(drop=None, **parts):
    data = square_to_data(higher_block(load_fixture("example_b"), 2))
    data.update(parts)
    data.pop(drop, None)
    return data


LOOP = {"from": "u", "label": "0", "to": "u"}
# x0 emits a twice; the graph is essential.
TWO_A_EDGES = graph_from_parts(
    ("a", "b"),
    ("x0", "x1", "y0", "y1"),
    (("x0", "a", "y0"), ("x0", "a", "y1"), ("x1", "a", "y0"), ("y0", "b", "x0"), ("y1", "b", "x1")),
)
BIG_INTEGER = "[" + "1" * 5000 + "]"
DEEP_NESTING = "[" * 100_000 + "]" * 100_000

# id -> (command, file content, extra arguments, expected error text); a
# content of None is the example_b graph, whose vertices are a and b, a
# string is written to the file unchanged, and the text's {path} is the
# input file
CASES = {
    "graph-big-integer": ("check", BIG_INTEGER, [], "error: {path}: not valid JSON"),
    "graph-deep-nesting": ("check", DEEP_NESTING, [], "error: {path}: JSON nests too deeply"),
    "square-big-integer": ("verify", BIG_INTEGER, [], "error: {path}: not valid JSON"),
    "square-deep-nesting": ("verify", DEEP_NESTING, [], "error: {path}: JSON nests too deeply"),
    "graph-not-a-mapping": ("check", [], [], "graph description must be a mapping"),
    "graph-repeated-symbol": (
        "check", graph_data(alphabet=["0", "0"]), [], "alphabet contains duplicate symbols"
    ),
    "graph-no-symbols": ("check", graph_data(alphabet=[], edges=[]), [], "alphabet is empty"),
    "graph-no-vertices": ("check", graph_data(vertices=[], edges=[]), [], "vertex list is empty"),
    "edge-not-a-mapping": (
        "check", graph_data(edges=["u"]), [], "edges[0]: edge record must be a mapping"
    ),
    "edge-without-target": (
        "check",
        graph_data(edges=[{"from": "u", "label": "0"}]),
        [],
        "edges[0]: missing key 'to'",
    ),
    "edge-from-unknown-vertex": (
        "check",
        graph_data(edges=[LOOP, dict(LOOP, **{"from": "w"})]),
        [],
        "edges[1]: unknown vertex 'w'",
    ),
    "edge-to-unknown-vertex": (
        "check", graph_data(edges=[dict(LOOP, to="w")]), [], "edges[0]: unknown vertex 'w'"
    ),
    "repeated-edge": (
        "check", graph_data(edges=[LOOP, LOOP]), [], "edges[1]: duplicate edge 'u' -'0'-> 'u'"
    ),
    "code-not-a-mapping": (
        "verify", square_data(label_code=[]), [], "label_code: must be a mapping"
    ),
    "code-alphabet-not-a-list": (
        "verify",
        square_data(label_code=code_data(input_alphabet="a")),
        [],
        "label_code: 'input_alphabet' must be a list",
    ),
    "rule-without-output": (
        "verify",
        square_data(label_code=code_data(rules=[{"block": ["a"]}])),
        [],
        "label_code: rules[0]: need 'block' and 'out'",
    ),
    "rule-block-too-long": (
        "verify",
        square_data(label_code=code_data(rules=[{"block": ["a", "a"], "out": "x"}])),
        [],
        "label_code: rules[0]: block length 2 != 1",
    ),
    "rule-unknown-input": (
        "verify",
        square_data(label_code=code_data(rules=[{"block": ["b"], "out": "x"}])),
        [],
        "label_code: rules[0]: unknown input symbol 'b'",
    ),
    "rule-unknown-output": (
        "verify",
        square_data(label_code=code_data(rules=[{"block": ["a"], "out": "y"}])),
        [],
        "label_code: rules[0]: unknown output symbol 'y'",
    ),
    "square-not-a-mapping": ("verify", [], [], "error: {path}: must be a mapping"),
    "square-without-part": (
        "verify", square_data(drop="label_code_inv"), [], "missing key 'label_code_inv'"
    ),
    "square-graph-unknown-vertex": (
        "verify",
        square_data(graph_h=graph_data(edges=[{"from": "u", "label": "0", "to": "nope"}])),
        [],
        "error: {path}: graph_h: edges[0]: unknown vertex 'nope'",
    ),
    "square-graph-not-a-mapping": (
        "verify",
        square_data(graph_g=[]),
        [],
        "error: {path}: graph_g: graph description must be a mapping",
    ),
    "lift-not-right-resolving": (
        "lift",
        square_to_data(identity_square(TWO_A_EDGES)),
        [],
        "error: conjugacy lift needs a right-resolving graph; vertex 'x0' emits 'a' more than once",
    ),
    "seed-without-vertices": (
        "gpp", None, ["--mode", "seeded", "--seed", ","], "empty seed set ','"
    ),
    "seed-unknown-vertex": (
        "gpp", None, ["--mode", "seeded", "--seed", "a,z"], "unknown vertex 'z' in seed set"
    ),
    "seeded-without-seeds": (
        "gpp", None, ["--mode", "seeded"], "seeded bundle mode needs at least one seed set"
    ),
    "full-with-seeds": (
        "gpp", None, ["--mode", "full", "--seed", "a"], "full bundle mode takes no seed sets"
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_malformed_input_is_one_error_line(tmp_path, capsys, case):
    command, content, extra, message = CASES[case]
    path = tmp_path / "input.json"
    data = graph_to_data(load_fixture("example_b")) if content is None else content
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    argv = [command, str(path)] if command in ("check", "gpp") else [command, "--square", str(path)]
    assert main(argv + extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert message.format(path=path) in err
