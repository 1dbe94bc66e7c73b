"""Command surface.

Construction commands (subset, past-cover, future-cover,
extended-future-cover, gpp, gprime, lift, export) write their product as
JSON or DOT to stdout, or to ``-o FILE``, plus a one-line size summary
on stderr.  Analysis commands (check, fibers, verify, verify-paper, iso)
print a run report to stdout; with ``--json`` the report is rendered as
byte-deterministic JSON (elapsed time appears only in the text
rendering, so identical inputs give identical JSON).

Exit codes: 0 all checks pass, 1 a property or verification check
failed, 2 invalid input, 3 an enumeration budget was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from .analysis import follower_partition, graphs_isomorphic
from .codes import ConjugacySquare, lift_conjugacy, verify_lift_diagrams, verify_square
from .covers import (
    check_regular,
    extended_future_cover,
    future_cover,
    stable_core,
    subset_construction,
)
from .errors import (
    GraphFormatError,
    SoficError,
    exit_code_for,
)
from .fibers import bundle_graph, fiber_core, fiber_sets_on_periodic
from .graphs import LabeledGraph, check_right_resolving, format_members, is_essential
from .io import (
    export_dot,
    factor_provenance,
    graph_to_data,
    load_code,
    load_graph,
    load_square,
    parse_periodic,
    subset_provenance,
)
from .relations import DEFAULT_MONOID_BUDGET, mask_of
from .verification import VerifyBounds, _counts, headline_counts, run_acceptance, run_criterion


@dataclass(frozen=True)
class ReportCheck:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass
class RunReport:
    """What one command run did: inputs, per-check verdicts, counts.

    ``to_data`` is the machine rendering and is byte-deterministic for
    identical inputs and bounds; ``render_text`` carries the same
    content plus the elapsed time.
    """

    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    counts: dict[str, Any] = field(default_factory=dict)
    checks: list[ReportCheck] = field(default_factory=list)
    result: Optional[Any] = None

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(ReportCheck(name, "pass" if ok else "fail", detail))

    def skip(self, name: str, detail: str = "") -> None:
        self.checks.append(ReportCheck(name, "skip", detail))

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_data(self) -> dict:
        data: dict[str, Any] = {
            "format": 1,
            "command": self.command,
            "inputs": self.inputs,
            "counts": self.counts,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "status": "pass" if self.ok else "fail",
        }
        if self.result is not None:
            data["result"] = self.result
        return data

    def render_text(self, elapsed: Optional[float] = None) -> str:
        lines = [f"command: {self.command}"]
        for name, note in self.inputs.items():
            lines.append(f"input {name}: {note}")
        for key, value in self.counts.items():
            lines.append(f"{key}: {value}")
        for c in self.checks:
            line = f"[{c.status}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            lines.append(line)
        lines.append(f"status: {'PASS' if self.ok else 'FAIL'}")
        if elapsed is not None:
            lines.append(f"time: {elapsed * 1000.0:.0f} ms")
        return "\n".join(lines)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def _input_note(path: str) -> str:
    return f"{path} sha256:{_digest(path)}"


def _elapsed(args: argparse.Namespace) -> float:
    return time.perf_counter() - args.started_at


def _emit_product(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(args: argparse.Namespace, message: str) -> None:
    print(f"{message} ({_elapsed(args) * 1000.0:.0f} ms)", file=sys.stderr)


def _graph_json(g: LabeledGraph, provenance=None) -> str:
    return json.dumps(graph_to_data(g, provenance), indent=2) + "\n"


def _finish(report: RunReport, args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        print(json.dumps(report.to_data(), indent=2))
    else:
        print(report.render_text(_elapsed(args)))
    return 0 if report.ok else 1


def cmd_check(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    report = RunReport("check", inputs={"graph": _input_note(args.graph)})
    report.counts["vertices"] = len(g.vertices)
    report.counts["edges"] = len(g.edges)
    essential = is_essential(g)
    report.add("essential", essential, "" if essential else "has a source or sink vertex")
    resolving = check_right_resolving(g)
    detail = ""
    if not resolving.ok:
        v, a = resolving.conflicts[0]
        detail = f"vertex {g.vertices[v]!r} emits {g.symbols[a]!r} more than once"
    report.add("right-resolving", resolving.ok, detail)
    if not (essential and resolving.ok):
        reason = "needs an essential graph" if not essential else "needs a right-resolving graph"
        report.skip("follower-separated", reason)
        report.skip("regular", reason)
        return _finish(report, args)
    merged = [
        "{" + ",".join(sorted(g.vertices[v] for v in part)) + "}"
        for part in follower_partition(g)
        if len(part) > 1
    ]
    detail = "vertices sharing a follower set: " + "; ".join(merged) if merged else ""
    report.add("follower-separated", not merged, detail)
    regular = check_regular(g, args.budget)
    detail = ""
    if not regular.ok:
        names = ", ".join(g.vertices[v] for v in regular.failing_vertices())
        detail = f"follower set of {names} is not a stabilized past set"
    report.add("regular", regular.ok, detail)
    return _finish(report, args)


def cmd_subset(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    sub = subset_construction(g, args.mode)
    _emit_product(_graph_json(sub.graph, subset_provenance(sub)), args.output)
    _note(args, f"subset[{args.mode}]: {_counts(sub.graph)}")
    return 0


def cmd_past_cover(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    core = stable_core(g, args.budget)
    _emit_product(_graph_json(core.graph, subset_provenance(core)), args.output)
    _note(args, f"past-cover: {_counts(core.graph)}")
    return 0


def cmd_future_cover(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    fc = future_cover(g, args.budget)
    _emit_product(_graph_json(fc.cover, factor_provenance(fc.core.graph, fc.bundle)), args.output)
    _note(args, f"future-cover: {_counts(fc.cover)} (past-cover: {_counts(fc.core.graph)})")
    return 0


def cmd_extended_future_cover(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    ext = extended_future_cover(g, args.budget)
    _emit_product(_graph_json(ext.graph, subset_provenance(ext.core)), args.output)
    n = len(ext.future.cover.vertices)
    shared = sum(1 for count in Counter(ext.factor_vertex).values() if count > 1)
    verdict = (
        f"genuine extension: {shared} of {n} future-cover vertices have more than one preimage"
        if shared
        else "isomorphic to the future cover"
    )
    _note(args, f"extended-future-cover: {_counts(ext.graph)}; {verdict}")
    return 0


def _parse_seeds(g: LabeledGraph, specs: Optional[Sequence[str]]) -> list[frozenset[int]]:
    seeds = []
    for spec in specs or ():
        names = [n for n in spec.split(",") if n]
        if not names:
            raise GraphFormatError(f"empty seed set {spec!r}")
        members = set()
        for name in names:
            if name not in g.vertices:
                raise GraphFormatError(
                    f"unknown vertex {name!r} in seed set; vertices are {list(g.vertices)}"
                )
            members.add(g.vertices.index(name))
        seeds.append(frozenset(members))
    return seeds


def cmd_gpp(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    bundle = bundle_graph(g, args.mode, _parse_seeds(g, args.seed) or None)
    _emit_product(_graph_json(bundle.graph, subset_provenance(bundle)), args.output)
    _note(args, f"gpp[{args.mode}]: {_counts(bundle.graph)}")
    return 0


def cmd_gprime(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    fcore = fiber_core(g, args.max_tail, args.budget)
    _emit_product(_graph_json(fcore.graph, subset_provenance(fcore)), args.output)
    _note(args, f"gprime: {_counts(fcore.graph)} ({len(fcore.seeds)} seed sets)")
    return 0


def cmd_fibers(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    p = parse_periodic(g, args.period)
    data = fiber_sets_on_periodic(g, p)
    word = [g.symbols[a] for a in p.word]
    report = RunReport("fibers", inputs={"graph": _input_note(args.graph)})
    report.counts["word"] = ",".join(word)
    report.counts["period"] = len(word)
    report.counts["fiber-count"] = data.count
    phases = []
    for k in range(len(word)):
        phases.append(
            {
                "past": sorted(g.vertices[v] for v in data.past_sets[k]),
                "forward": sorted(g.vertices[v] for v in data.forward_sets[k]),
                "fiber": sorted(g.vertices[v] for v in data.fiber_sets[k]),
            }
        )
        report.counts[f"phase {k}"] = (
            f"past={format_members(g, mask_of(data.past_sets[k]))}"
            f" forward={format_members(g, mask_of(data.forward_sets[k]))}"
            f" fiber={format_members(g, mask_of(data.fiber_sets[k]))}"
        )
    report.result = {"word": word, "count": data.count, "phases": phases}
    if check_right_resolving(g).ok:
        report.add(
            "fiber-equals-past-sets",
            data.fiber_sets == data.past_sets,
            "deterministic labeling forces the fiber sets to be the past sets",
        )
    else:
        report.skip("fiber-equals-past-sets", "graph is not right-resolving")
    return _finish(report, args)


# The six parts of a square given file by file, in ConjugacySquare field
# order, with their loaders.  Without its dashes, a name is also the
# part's report input name.
_SQUARE_PARTS = (
    ("graph", load_graph),
    ("--graph-h", load_graph),
    ("--phi", load_code),
    ("--phi-inv", load_code),
    ("--psi", load_code),
    ("--psi-inv", load_code),
)


def _square_from_args(args: argparse.Namespace) -> tuple[ConjugacySquare, dict[str, str]]:
    if args.square:
        return load_square(args.square), {"square": _input_note(args.square)}
    paths = {
        name: getattr(args, name.lstrip("-").replace("-", "_")) for name, _ in _SQUARE_PARTS
    }
    missing = [name for name, path in paths.items() if not path]
    if missing:
        flags = " ".join(name for name, _ in _SQUARE_PARTS[1:])
        raise GraphFormatError(
            f"{args.command} needs --square FILE, or a graph argument plus {flags}"
            f" (missing: {', '.join(missing)})"
        )
    square = ConjugacySquare(*(load(paths[name]) for name, load in _SQUARE_PARTS))
    return square, {name.lstrip("-"): _input_note(path) for name, path in paths.items()}


def cmd_lift(args: argparse.Namespace) -> int:
    square, _ = _square_from_args(args)
    lifted = lift_conjugacy(square, verify=not args.no_verify, budget=args.budget)
    product = {
        "format": 1,
        "kind": "lifted-cover-code",
        "kappa": lifted.kappa,
        "block_radius": lifted.block_radius,
        "core_g": graph_to_data(lifted.core_g.graph, subset_provenance(lifted.core_g)),
        "core_h": graph_to_data(lifted.core_h.graph, subset_provenance(lifted.core_h)),
    }
    _emit_product(json.dumps(product, indent=2) + "\n", args.output)
    _note(
        args,
        f"lift: window radius {lifted.block_radius} (kappa {lifted.kappa}),"
        f" cores {_counts(lifted.core_g.graph)} -> {_counts(lifted.core_h.graph)}",
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    square, inputs = _square_from_args(args)
    report = RunReport("verify", inputs=inputs)
    report.counts["graph-g"] = _counts(square.graph_g)
    report.counts["graph-h"] = _counts(square.graph_h)
    outcome = verify_square(square, args.max_window, args.max_period)
    for check in outcome.checks:
        report.add(check.name, check.ok, check.detail)
    if args.diagrams:
        if outcome.ok:
            lifted = lift_conjugacy(square, verify=False, budget=args.budget)
            diagrams = verify_lift_diagrams(lifted, max_period=args.max_period)
            for check in diagrams.checks:
                report.add(f"diagram {check.name}", check.ok, check.detail)
        else:
            report.skip("diagrams", "square identities failed; nothing to lift")
    return _finish(report, args)


def cmd_verify_paper(args: argparse.Namespace) -> int:
    bounds = VerifyBounds(
        max_period=args.max_period,
        tail_bound=args.max_tail,
        random_graphs=args.random_graphs,
        random_seed=args.seed,
        monoid_budget=args.budget,
    )
    report = RunReport("verify-paper")
    report.counts["bounds"] = (
        f"max-period={bounds.max_period} max-tail={bounds.tail_bound}"
        f" random-graphs={bounds.random_graphs} seed={bounds.random_seed}"
    )
    for line in headline_counts(bounds):
        key, _, value = line.partition(": ")
        report.counts[key] = value
    if args.criterion:
        results = [run_criterion(args.criterion, bounds)]
    else:
        results = run_acceptance(bounds)
    payload = []
    for res in results:
        detail = f"{len(res.checks)} checks"
        if not res.ok:
            detail += "; failing: " + "; ".join(
                f"{c.name} ({c.detail})" if c.detail else c.name for c in res.failures()
            )
        report.add(f"criterion-{res.number} {res.title}", res.ok, detail)
        payload.append(
            {
                "criterion": res.number,
                "title": res.title,
                "checks": [
                    {"name": c.name, "status": "pass" if c.ok else "fail", "detail": c.detail}
                    for c in res.checks
                ],
            }
        )
    report.result = payload
    return _finish(report, args)


def cmd_iso(args: argparse.Namespace) -> int:
    g1 = load_graph(args.graph1)
    g2 = load_graph(args.graph2)
    report = RunReport(
        "iso",
        inputs={"graph1": _input_note(args.graph1), "graph2": _input_note(args.graph2)},
    )
    report.counts["graph1"] = first = _counts(g1)
    report.counts["graph2"] = second = _counts(g2)
    outcome = graphs_isomorphic(g1, g2)
    if outcome.isomorphic and outcome.mapping is not None:
        pairs = [
            f"{g1.vertices[u]}->{g2.vertices[v]}" for u, v in enumerate(outcome.mapping)
        ]
        detail = "label-preserving vertex map: " + ", ".join(pairs)
        report.result = {
            "mapping": {g1.vertices[u]: g2.vertices[v] for u, v in enumerate(outcome.mapping)}
        }
    elif first != second:
        detail = f"sizes differ: {first} against {second}"
    else:
        detail = "no label-preserving vertex map"
    report.add("isomorphic", outcome.isomorphic, detail)
    return _finish(report, args)


def cmd_export(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    _emit_product(export_dot(g, args.name), args.output)
    _note(args, f"export[dot]: {_counts(g)}")
    return 0


def _at_least(minimum: int) -> Callable[[str], int]:
    """``type=`` for an int flag: a value below ``minimum`` is a parse error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


Adder = Callable[[argparse.ArgumentParser], Any]


def _arg(*names: str, **options: Any) -> Adder:
    """One ``add_argument`` call on its command's subparser, made when the parser is built."""
    return lambda p: p.add_argument(*names, **options)


_GRAPH = _arg("graph")
_BUDGET = _arg(
    "--budget",
    type=_at_least(1),
    default=DEFAULT_MONOID_BUDGET,
    help="transition monoid element budget (default %(default)s)",
)
_OUTPUT = _arg("-o", "--output", help="write the product here instead of stdout")
_JSON = _arg("--json", action="store_true", help="machine-readable report")
_MAX_PERIOD = _arg("--max-period", type=_at_least(0), default=6, help="default %(default)s")
_MAX_TAIL = _arg("--max-tail", type=_at_least(0), default=8, help="default %(default)s")
_SQUARE_INPUTS = (
    _arg("graph", nargs="?", help="domain graph (with --graph-h and code flags)"),
    _arg("--square", help="JSON file bundling both graphs and all four codes"),
    _arg("--graph-h", help="codomain graph"),
    _arg("--phi", help="edge block code file, domain to codomain"),
    _arg("--phi-inv", help="inverse edge block code file"),
    _arg("--psi", help="label block code file, domain to codomain"),
    _arg("--psi-inv", help="inverse label block code file"),
)


@dataclass(frozen=True)
class Command:
    """One row of the command table: a subcommand and how to parse it."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    arguments: tuple[Adder, ...]


COMMANDS = (
    Command(
        "check",
        "Report structural predicates of a labeled graph",
        cmd_check,
        (_GRAPH, _BUDGET, _JSON),
    ),
    Command(
        "subset",
        "Determinize a graph onto vertex subsets",
        cmd_subset,
        (
            _GRAPH,
            _arg(
                "--mode",
                choices=("reachable-from-full", "full"),
                default="reachable-from-full",
                help="subset family to build (default %(default)s)",
            ),
            _OUTPUT,
        ),
    ),
    Command(
        "past-cover",
        "Subset cover on the stabilized endpoint sets of left-infinite paths",
        cmd_past_cover,
        (_GRAPH, _BUDGET, _OUTPUT),
    ),
    Command(
        "future-cover",
        "Follower-merged quotient of the past cover",
        cmd_future_cover,
        (_GRAPH, _BUDGET, _OUTPUT),
    ),
    Command(
        "extended-future-cover",
        "Past cover of the future cover",
        cmd_extended_future_cover,
        (_GRAPH, _BUDGET, _OUTPUT),
    ),
    Command(
        "gpp",
        "All-member-emit bundle graph over vertex subsets",
        cmd_gpp,
        (
            _GRAPH,
            _arg(
                "--mode",
                choices=("full", "seeded"),
                default="full",
                help="subset family to bundle (default %(default)s)",
            ),
            _arg(
                "--seed",
                action="append",
                metavar="V1,V2",
                help="seed vertex set for seeded mode; repeatable",
            ),
            _OUTPUT,
        ),
    ),
    Command(
        "gprime",
        "Bundle subgraph generated by the fiber sets of doubly-tailed points",
        cmd_gprime,
        (_GRAPH, _MAX_TAIL, _BUDGET, _OUTPUT),
    ),
    Command(
        "fibers",
        "Past, forward, and fiber sets of a periodic word, with the fiber count",
        cmd_fibers,
        (
            _GRAPH,
            _arg(
                "--period",
                required=True,
                metavar="WORD",
                help="one period, comma-separated symbol names (or plain digits)",
            ),
            _JSON,
        ),
    ),
    Command(
        "lift",
        "Induce the conjugacy of past covers from a label-respecting conjugacy",
        cmd_lift,
        (
            *_SQUARE_INPUTS,
            _arg(
                "--no-verify",
                action="store_true",
                help="skip the square identity checks before lifting",
            ),
            _BUDGET,
            _OUTPUT,
        ),
    ),
    Command(
        "verify",
        "Check the commuting-square identities of a label-respecting conjugacy",
        cmd_verify,
        (
            *_SQUARE_INPUTS,
            _arg("--max-window", type=_at_least(0), default=12, help="default %(default)s"),
            _MAX_PERIOD,
            _arg(
                "--diagrams",
                action="store_true",
                help="also lift the conjugacy and check the induced-map diagrams",
            ),
            _BUDGET,
            _JSON,
        ),
    ),
    Command(
        "verify-paper",
        "Run the bundled example suite and report every acceptance check",
        cmd_verify_paper,
        (
            _arg("--criterion", type=int, choices=range(1, 9), help="run one criterion only"),
            _MAX_PERIOD,
            _MAX_TAIL,
            _arg("--random-graphs", type=_at_least(0), default=25, help="default %(default)s"),
            _arg("--seed", type=int, default=20260814, help="default %(default)s"),
            _BUDGET,
            _JSON,
        ),
    ),
    Command(
        "iso",
        "Decide label-preserving graph isomorphism",
        cmd_iso,
        (_arg("graph1"), _arg("graph2"), _JSON),
    ),
    Command(
        "export",
        "Export a graph for rendering",
        cmd_export,
        (
            _GRAPH,
            _arg("--dot", action="store_true", required=True, help="DOT format"),
            _arg("--name", default="G", help="graph name in the output (default %(default)s)"),
            _OUTPUT,
        ),
    ),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser with every command, built once per process.

    ``parse_args`` leaves no state in a parser, so every ``main`` call in
    a process parses with the same one.
    """
    parser = argparse.ArgumentParser(
        prog="soficovers",
        description="Canonical covers of sofic shifts presented by labeled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for spec in COMMANDS:
        p = sub.add_parser(spec.name, help=spec.help, description=spec.help)
        p.set_defaults(handler=spec.handler)
        for add_argument in spec.arguments:
            add_argument(p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.started_at = time.perf_counter()
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SoficError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
