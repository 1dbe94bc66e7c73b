"""Generated graph and square files through the command line.

Hypothesis draws graph documents over a few names, most of them well
formed, and then replaces a part of each, at any depth, with arbitrary
JSON or with a string of the document, drops it or repeats it; some
files are also cut short.  Each graph
file goes through ``check``, ``extended-future-cover`` and
``export --dot``.  Square files start from the square of the 2-block
presentation of ``example_b``, are mutated the same way and go through
``verify --square`` and ``lift --square``.  The same square is also
given part by part, as a graph argument with ``--graph-h``, ``--phi``,
``--phi-inv``, ``--psi`` and ``--psi-inv`` files, one of the six
mutated.  Period strings for ``fibers --period`` are drawn over each
bundled graph's symbol names, commas and stray characters.

``cli.main`` runs in process and must never raise.  A run that exits 2
(bad input) or 3 (a budget overrun) prints nothing on stdout and exactly
one stderr line, which starts with ``error: ``.  A run that exits 0
read a valid file, and so did one that exits 1 with a failed verdict;
neither prints a line starting with ``error:``.  The one exit 1 with an
error line is ``lift`` refusing a well-formed square whose identities
fail.  The hand-written cases of ``test_cli_errors.py`` pin
the messages; these only pin the shape of the outcome.
"""

from __future__ import annotations

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soficovers import BASE_FIXTURES, graph_to_data, higher_block, load_fixture, square_to_data
from soficovers.cli import main

NAMES = ("u", "v", "w", "0", "1", "")
# Small budgets and bounds keep every run short; an overrun exits 3.
BUDGET = ["--budget", "2000"]
GRAPH_COMMANDS = (
    ["check", *BUDGET],
    ["extended-future-cover", *BUDGET],
    ["export", "--dot"],
)
SQUARE_COMMANDS = (
    ["verify", "--max-window", "4", "--max-period", "4", *BUDGET],
    ["lift", *BUDGET],
)
SQUARE = square_to_data(higher_block(load_fixture("example_b"), 2))
# The parts of SQUARE given one file each: (square key, command-line flag),
# the graph argument first.
SQUARE_PARTS = (
    ("graph_g", None),
    ("graph_h", "--graph-h"),
    ("edge_code", "--phi"),
    ("edge_code_inv", "--phi-inv"),
    ("label_code", "--psi"),
    ("label_code_inv", "--psi-inv"),
)
# Graphs for ``fibers --period``: the bundled bases, and the 2-block
# recoding of example_b, whose symbol names hold dots.
PERIOD_GRAPHS = {name: graph_to_data(load_fixture(name)) for name in BASE_FIXTURES}
PERIOD_GRAPHS["example_b.2-block"] = SQUARE["graph_h"]

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 3),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(NAMES),
        st.text(max_size=3),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(NAMES + ("from", "to", "label")), children, max_size=3),
    ),
    max_leaves=6,
)


def strings(value):
    """Every string value at any depth of a JSON value, keys left out."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from strings(item)


def paths(value, prefix=()):
    """The key path of every part at any depth below a JSON value."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield prefix + (key,)
            yield from paths(child, prefix + (key,))


def mutated(draw, value, names):
    """A copy of ``value`` with one part at any depth, drawn evenly from
    all of them, replaced by arbitrary JSON or by one of ``names``,
    dropped or, in a list, repeated."""
    out = copy.deepcopy(value)
    *path, key = draw(st.sampled_from(list(paths(out))))
    parent = out
    for step in path:
        parent = parent[step]
    kind = draw(st.sampled_from(("rename", "replace", "drop", "repeat")))
    if kind == "drop":
        del parent[key]
    elif kind == "repeat" and isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[key] = draw(json_values if kind == "replace" else names)
    return out


@st.composite
def files(draw, documents):
    """A drawn document after zero to three mutations, as JSON text that
    is sometimes cut short.  A renaming mutation puts one of the
    document's own strings in place of a part."""
    data = draw(documents)
    names = st.sampled_from(sorted(set(strings(data))))
    for _ in range(draw(st.integers(0, 3))):
        if data:
            data = mutated(draw, data, names)
    text = json.dumps(data)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def graph_documents(draw):
    """A graph document whose edges name its own symbols and vertices."""
    alphabet = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    vertices = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    edge = st.fixed_dictionaries(
        {
            "from": st.sampled_from(vertices),
            "label": st.sampled_from(alphabet),
            "to": st.sampled_from(vertices),
        }
    )
    edges = draw(st.lists(edge, max_size=8, unique_by=lambda e: tuple(e.values())))
    return {"format": 1, "alphabet": alphabet, "vertices": vertices, "edges": edges}


def outcome(argv, capsys):
    """Run ``argv`` in process, check the shape of its outcome and return
    the exit code and stderr."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, code)
    if err.startswith("error: "):
        assert code and out == "" and err.count("\n") == 1, (argv, code, err)
    else:
        assert code in (0, 1), (argv, code)
        assert not any(line.startswith("error:") for line in err.splitlines()), (argv, err)
    return code, err


def square_outcome(command, files, capsys):
    """``outcome`` of a square command on ``files``: its one exit 1 with
    an error line is ``lift`` refusing a well-formed square whose
    identities fail."""
    code, err = outcome([command[0], *files, *command[1:]], capsys)
    if code == 1 and err.startswith("error: "):
        assert command[0] == "lift" and err.startswith("error: square failed verification: ")


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(files(graph_documents()))
def test_graph_file_ends_in_a_verdict_or_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    for command in GRAPH_COMMANDS:
        code, err = outcome([command[0], str(path), *command[1:]], capsys)
        # the constructions' own checks hold on every graph they accept
        assert code != 1 or not err.startswith("error: "), (command, err)


@FUZZ
@given(files(st.just(SQUARE)))
def test_square_file_ends_in_a_verdict_or_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "square.json"
    path.write_text(text)
    for command in SQUARE_COMMANDS:
        square_outcome(command, ["--square", str(path)], capsys)


@FUZZ
@given(st.sampled_from(range(len(SQUARE_PARTS))), st.data())
def test_square_parts_end_in_a_verdict_or_one_error_line(tmp_path, capsys, bad, data):
    parts = []
    for k, (key, flag) in enumerate(SQUARE_PARTS):
        text = data.draw(files(st.just(SQUARE[key]))) if k == bad else json.dumps(SQUARE[key])
        path = tmp_path / f"{key}.json"
        path.write_text(text)
        parts += [str(path)] if flag is None else [flag, str(path)]
    for command in SQUARE_COMMANDS:
        square_outcome(command, parts, capsys)


@st.composite
def periods(draw, symbols):
    """A period string: symbol names joined by commas or run together,
    half of them with one stray token put in; or, one time in five,
    arbitrary text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=6))
    parts = draw(st.lists(st.sampled_from(symbols), max_size=6))
    if draw(st.booleans()):
        stray = draw(st.sampled_from(("", " ", ",", "-", "x", ".", "\n")))
        parts.insert(draw(st.integers(0, len(parts))), stray)
    return draw(st.sampled_from((",", ""))).join(parts)


@FUZZ
@given(st.sampled_from(sorted(PERIOD_GRAPHS)), st.data())
def test_period_string_ends_in_a_verdict_or_one_error_line(tmp_path, capsys, name, data):
    doc = PERIOD_GRAPHS[name]
    text = data.draw(periods(tuple(doc["alphabet"])))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    # the ``=`` form hands argparse a value that starts with a dash as a value
    code, err = outcome(["fibers", str(path), f"--period={text}"], capsys)
    assert code != 1 or not err.startswith("error: "), (text, err)
