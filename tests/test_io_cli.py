import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soficovers

from soficovers import (
    BASE_FIXTURES,
    GraphFormatError,
    build_graph,
    code_from_data,
    code_to_data,
    export_dot,
    extended_future_cover,
    graph_from_parts,
    graph_to_data,
    higher_block,
    load_fixture,
    parse_periodic,
    square_from_data,
    square_to_data,
    stable_core,
    verify_square,
)
from soficovers.cli import main
from soficovers.codes import rule_entries
from soficovers.io import load_graph, subset_provenance
from test_golden import looped_ring, shuffled


def write_graph(tmp_path, name, g, provenance=None):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(graph_to_data(g, provenance), indent=2))
    return str(path)


def test_graph_round_trip_preserves_order():
    for name in BASE_FIXTURES:
        g = load_fixture(name)
        back = build_graph(graph_to_data(g))
        assert back.vertices == g.vertices
        assert back.symbols == g.symbols
        assert back.edges == g.edges


def test_derived_graph_file_reloads(tmp_path, example_a):
    core = stable_core(example_a)
    path = write_graph(tmp_path, "core", core.graph, subset_provenance(core))
    data = json.loads(Path(path).read_text())
    assert data["format"] == 1
    assert data["provenance"]["kind"] == "StableCore"
    back = load_graph(path)  # provenance is carried but ignored by the parser
    assert back.edges == core.graph.edges


def test_code_round_trip(example_b):
    code = higher_block(example_b, 2).square.label_code
    back = code_from_data(code_to_data(code))
    assert back.radius == code.radius
    assert rule_entries(back) == rule_entries(code)


def test_square_round_trip(example_b):
    square = higher_block(example_b, 2).square
    back = square_from_data(square_to_data(square))
    assert verify_square(back).ok


def test_code_rejects_conflicting_rules():
    data = {
        "format": 1,
        "window_radius": 0,
        "input_alphabet": ["a"],
        "output_alphabet": ["x", "y"],
        "rules": [{"block": ["a"], "out": "x"}, {"block": ["a"], "out": "y"}],
    }
    with pytest.raises(GraphFormatError) as exc:
        code_from_data(data)
    assert "rules[1]" in str(exc.value)


def test_code_rejects_loose_fields_found_example():
    data = {
        "format": True,
        "window_radius": 0,
        "input_alphabet": [["x"]],
        "output_alphabet": [1],
        "rules": [{"block": [["x"]], "out": 1}],
    }
    with pytest.raises(GraphFormatError):
        code_from_data(data)


LOOSE_CODE_FIELDS = [
    {"format": True},
    {"format": 1.0},
    {"window_radius": True},
    {"input_alphabet": ["a", 1]},
    {"output_alphabet": [["x"]]},
    {"rules": [{"block": [1], "out": "x"}]},
    {"rules": [{"block": "a", "out": "x"}]},
    {"rules": [{"block": ["a"], "out": 1}]},
    {"input_alphabet": ["a", "a"]},
    {"output_alphabet": ["x", "x"]},
]
LOOSE_CODE_IDS = [
    "format-true", "format-float", "radius-true", "int-input-symbol",
    "list-output-symbol", "int-block-entry", "string-block", "int-out",
    "repeated-input-symbol", "repeated-output-symbol",
]


def strict_code_data():
    return {
        "format": 1,
        "window_radius": 0,
        "input_alphabet": ["a"],
        "output_alphabet": ["x"],
        "rules": [{"block": ["a"], "out": "x"}],
    }


@pytest.mark.parametrize("change", LOOSE_CODE_FIELDS, ids=LOOSE_CODE_IDS)
def test_code_rejects_loose_fields(change):
    code_from_data(strict_code_data())  # the unchanged record loads
    data = strict_code_data()
    data.update(change)
    with pytest.raises(GraphFormatError):
        code_from_data(data)


@pytest.mark.parametrize(
    "key,change",
    [("square", {"format": True})]
    + [("label_code", change) for change in LOOSE_CODE_FIELDS],
    ids=["square-format-true"] + [f"label_code-{i}" for i in LOOSE_CODE_IDS],
)
def test_cli_verify_rejects_loose_square(tmp_path, capsys, key, change):
    data = square_to_data(higher_block(load_fixture("example_b"), 2).square)
    (data if key == "square" else data[key]).update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--square", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_export_dot_text():
    g = load_fixture("single_loop")
    text = export_dot(g, "L")
    assert text.splitlines()[0] == 'digraph "L" {'
    assert '  "v" -> "v" [label="0"];' in text


def test_parse_periodic_forms(example_a):
    assert parse_periodic(example_a, "0,3").word == (0, 3)
    assert parse_periodic(example_a, "30").word == (0, 3)  # least rotation
    assert parse_periodic(example_a, "2").word == (2,)
    with pytest.raises(GraphFormatError):
        parse_periodic(example_a, "9")
    with pytest.raises(GraphFormatError):
        parse_periodic(example_a, "")
    with pytest.raises(GraphFormatError):
        parse_periodic(example_a, ",")


def fixture_file(tmp_path, name):
    return write_graph(tmp_path, name, load_fixture(name))


def test_cli_check_pass(tmp_path, capsys):
    code = main(["check", fixture_file(tmp_path, "example_a")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] regular" in out
    assert "status: PASS" in out


def test_cli_check_regularity_failure(tmp_path, capsys):
    code = main(["check", fixture_file(tmp_path, "two_loops_vs_one")])
    out = capsys.readouterr().out
    assert code == 1
    assert "[fail] regular" in out
    assert "q" in out


def test_cli_check_json_deterministic(tmp_path, capsys):
    path = fixture_file(tmp_path, "example_b")
    assert main(["check", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["format"] == 1
    assert report["status"] == "pass"
    assert "time" not in first


def test_cli_check_essential_graph_not_right_resolving(tmp_path, capsys):
    g = graph_from_parts("a", "uv", [("u", "a", "u"), ("u", "a", "v"), ("v", "a", "u")])
    assert main(["check", write_graph(tmp_path, "fan", g), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = {c["name"]: (c["status"], c["detail"]) for c in json.loads(captured.out)["checks"]}
    assert checks == {
        "essential": ("pass", ""),
        "right-resolving": ("fail", "vertex 'u' emits 'a' more than once"),
        "follower-separated": ("skip", "needs a right-resolving graph"),
        "regular": ("skip", "needs a right-resolving graph"),
    }


def test_cli_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"alphabet": ["0"], "vertices": ["v"]}')
    assert main(["check", str(path)]) == 2
    assert "edges" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["check", "nowhere.json"]) == 2


def test_cli_subset_product(tmp_path, capsys):
    out = tmp_path / "subset.json"
    code = main(
        ["subset", fixture_file(tmp_path, "example_a"), "--mode", "full", "-o", str(out)]
    )
    assert code == 0
    assert "7 vertices / 24 edges" in capsys.readouterr().err
    product = load_graph(str(out))
    assert len(product.vertices) == 7


def test_cli_past_cover_stdout(tmp_path, capsys):
    assert main(["past-cover", fixture_file(tmp_path, "example_b")]) == 0
    captured = capsys.readouterr()
    product = build_graph(json.loads(captured.out))
    assert len(product.vertices) == 3
    assert "past-cover: 3 vertices / 8 edges" in captured.err


def test_cli_gpp_rejects_non_right_resolving(tmp_path, capsys):
    path = tmp_path / "nonrr.json"
    path.write_text(
        json.dumps(
            {
                "alphabet": ["0"],
                "vertices": ["u", "v"],
                "edges": [
                    {"from": "u", "label": "0", "to": "u"},
                    {"from": "u", "label": "0", "to": "v"},
                    {"from": "v", "label": "0", "to": "u"},
                ],
            }
        )
    )
    assert main(["gpp", str(path)]) == 2
    assert main(["gprime", str(path)]) == 2
    capsys.readouterr()


def test_cli_budget_exceeded(tmp_path, capsys):
    assert main(["past-cover", fixture_file(tmp_path, "example_a"), "--budget", "2"]) == 3
    assert "error" in capsys.readouterr().err


OUT_OF_RANGE = [
    ("--budget", ["past-cover", "{graph}", "--budget", "0"]),
    ("--max-period", ["gprime", "{graph}", "--max-period", "-1"]),
    ("--max-tail", ["gprime", "{graph}", "--max-tail", "-1"]),
    ("--max-window", ["verify", "--square", "{graph}", "--max-window", "-1"]),
    ("--random-graphs", ["verify-paper", "--random-graphs", "-1", "--criterion", "3"]),
]


@pytest.mark.parametrize("flag, argv", OUT_OF_RANGE, ids=[flag for flag, _ in OUT_OF_RANGE])
def test_cli_rejects_out_of_range_counts(tmp_path, capsys, flag, argv):
    graph = fixture_file(tmp_path, "example_a")
    with pytest.raises(SystemExit) as exc:  # a parse error, raised before any input is read
        main([arg.format(graph=graph) for arg in argv])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


def test_cli_fibers(tmp_path, capsys):
    code = main(["fibers", fixture_file(tmp_path, "example_a"), "--period", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fiber-count: 3" in out
    assert "phase 0" in out


def test_cli_fibers_unrealizable(tmp_path, capsys):
    assert main(["fibers", fixture_file(tmp_path, "even_shift"), "--period", "0,1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("period", [",", ",,"])
def test_cli_fibers_rejects_period_without_symbols(tmp_path, capsys, period):
    assert main(["fibers", fixture_file(tmp_path, "example_a"), "--period", period]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "change",
    [
        {"format": True},
        {"format": 1.0},
        {"alphabet": ["0", ["x"]]},
        {"vertices": ["u", 1]},
        {"edges": [{"from": "u", "label": 0, "to": "u"}]},
    ],
    ids=["format-true", "format-float", "list-symbol", "int-vertex", "int-label"],
)
def test_cli_rejects_non_string_names_and_loose_format(tmp_path, capsys, change):
    data = {
        "format": 1,
        "alphabet": ["0"],
        "vertices": ["u"],
        "edges": [{"from": "u", "label": "0", "to": "u"}],
    }
    data.update(change)
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_cli_iso_example(tmp_path, capsys):
    b = fixture_file(tmp_path, "example_b")
    merged = extended_future_cover(load_fixture("example_b")).merge.cover
    merged_path = write_graph(tmp_path, "merged_ext", merged)
    assert main(["iso", b, merged_path]) == 0
    assert "[pass] isomorphic" in capsys.readouterr().out
    ext_path = write_graph(
        tmp_path, "ext", extended_future_cover(load_fixture("example_b")).graph
    )
    assert main(["iso", b, ext_path]) == 1


def test_cli_iso_deeper_than_the_recursion_limit(tmp_path, capsys):
    """The backtracking keeps one stack entry per vertex, not one call
    frame.  On a cycle every vertex gets one colour, since refinement finds
    nothing to split, and the search maps the vertices in order."""
    n = 1200
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], "a", names[(i + 1) % n]) for i in range(n)]
    path = write_graph(tmp_path, "ring", graph_from_parts(["a"], names, edges))
    assert main(["iso", "--json", path, path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["result"]["mapping"] == {v: v for v in names}


def test_cli_iso_splits_a_long_ring(tmp_path, capsys):
    """A b loop on one vertex of the ring: refinement must split off the
    vertices one at a time, by their distance to the loop, and then every
    class holds one vertex of each graph."""
    ring = looped_ring(1200)
    path = write_graph(tmp_path, "ring", ring)
    twin = tmp_path / "ring.permuted.json"
    twin.write_text(json.dumps(shuffled(graph_to_data(ring), 1200)))
    assert main(["iso", "--json", path, str(twin)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["result"]["mapping"] == {v: v for v in ring.vertices}


def test_cli_verify_square(tmp_path, capsys):
    square = higher_block(load_fixture("example_b"), 2).square
    path = tmp_path / "square.json"
    path.write_text(json.dumps(square_to_data(square)))
    assert main(["verify", "--square", str(path)]) == 0
    assert "status: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["lift", "verify"])
def test_cli_square_parts_missing(capsys, command):
    assert main([command, "--phi", "phi.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} needs --square FILE")
    assert "missing: graph, --graph-h, --phi-inv, --psi, --psi-inv" in err


def test_cli_lift_product(tmp_path, capsys):
    square = higher_block(load_fixture("example_b"), 2).square
    path = tmp_path / "square.json"
    path.write_text(json.dumps(square_to_data(square)))
    out = tmp_path / "lifted.json"
    assert main(["lift", "--square", str(path), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "lifted-cover-code"
    assert data["block_radius"] >= 1
    assert build_graph(data["core_h"]).vertices
    capsys.readouterr()


def test_cli_lift_missing_flags(tmp_path, capsys):
    assert main(["lift", fixture_file(tmp_path, "example_b")]) == 2
    assert "--psi" in capsys.readouterr().err


def test_cli_export_dot(tmp_path, capsys):
    assert main(["export", fixture_file(tmp_path, "single_loop"), "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_cli_verify_paper_single_criterion(capsys):
    assert main(["verify-paper", "--criterion", "2"]) == 0
    out = capsys.readouterr().out
    assert "extended(Example-B): 3 / 8" in out
    assert "[pass] criterion-2" in out


def test_python_dash_m_runs_the_cli(tmp_path):
    path = [str(Path(soficovers.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    graph = fixture_file(tmp_path, "example_a")
    done = subprocess.run(
        [sys.executable, "-m", "soficovers", "export", graph, "--dot"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("digraph")
