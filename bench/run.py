"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ladder|paper|wide --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout the script sits in;
nothing needs installing.  The run repeats passes over the workload's
fixed op list for at least ``--seconds``.  Before each pass it sets up
cold: it imports ``soficovers`` afresh and regenerates the inputs from the
seed.  Readable lines go first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Every run writes the inputs it measured and
each op's median latency under ``.bench_out/`` in the checkout; a traced
run adds its spans.

Exit status: 0 after a run (failed ops are reported, not fatal), 2 when
the package cannot be imported from the checkout or the arguments are
wrong.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, load_package  # noqa: E402


def fresh_import():
    """Import ``soficovers`` from scratch, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "soficovers" or k.startswith("soficovers.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    return importlib.import_module("soficovers")


def set_up(workload: str, seed: int, workdir: Path, record: dict):
    """Import the package afresh and build the workload's ops on new inputs;
    ``record`` gets the description of the inputs."""
    fresh_import()
    ops, inputs = WORKLOADS[workload](seed, load_package(), workdir)
    record.update(inputs)
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "soficovers" / "__init__.py").is_file():
        print(f"error: no package at {src / 'soficovers'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        package = fresh_import()
    except ImportError as exc:
        print(f"error: cannot import soficovers: {exc}", file=sys.stderr)
        return 2
    if Path(package.__file__).resolve().parent != src / "soficovers":
        print(f"error: soficovers imported from {package.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"inputs-{args.workload}-{args.seed}"
    tracer = Tracer()
    record: dict = {}
    try:
        names = [op.name for op in set_up(args.workload, args.seed, workdir, record)]
        passes = harness.measure(lambda: set_up(args.workload, args.seed, workdir, record),
                                 args.seconds, bool(args.trace), tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, lines = harness.end_to_end(passes)
    plain = sum(not p.traced for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  ops {len(names)}  "
          f"passes {plain} plain, {len(passes) - plain} traced")
    for line in lines:
        print(line)
    failures = [f for p in passes for f in p.failures]
    for name, problem in failures[:10]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)

    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    (out_dir / f"inputs-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    per_op = {name: ms * 1000.0 for name, ms in zip(names, harness.op_latencies(passes))}
    (out_dir / f"ops-{tag}.json").write_text(json.dumps(per_op, indent=1) + "\n")
    if args.trace:
        metrics = harness.per_layer(passes)
        tracer.write(out_dir / f"spans-{tag}.jsonl")
        for name, m in metrics.items():
            print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = e2e
    attempted = sum(len(p.raw) for p in passes)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
