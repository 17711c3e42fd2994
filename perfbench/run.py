"""Benchmark of the ``bitrade`` CLI: end-to-end throughput, memory and
set-up time on seeded inputs, or per-layer self times with ``--trace 1``.

Run from the repository root:

    python3 perfbench/run.py --workload construct_a9 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run is one process and one client in a closed loop: the workload's
commands go through ``bitrades.cli.main`` in this process, each one
starting when the previous one has returned and its output has been
checked.  Iterations repeat until their commands have taken ``--seconds``
of wall time, and at least three run: peak RSS reaches the allocator's
steady state only in the second, and a median needs more than two.  Each
throughput is the median over iterations; ``peak_rss_mb`` is the
high-water RSS at the end of the third, so that it does not depend on how
many iterations the run's wall time allowed.
``setup_s`` is the median of several set-ups, each a fresh import of the
program plus input generation.
Throughputs and ``setup_s`` are in reference seconds (see ``speed``): wall
time scaled by how fast a calibration kernel ran meanwhile, so that a
neighbour's load on the shared host cancels out.  The wall-time figures
are printed too, as information.

With ``--trace 1`` the loop runs untraced, then the same number of
iterations traced; the per-layer metrics are per iteration, and the ratio
of the two timed sections is the tracing overhead.  Spans are written to
``.perfbench_work/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric by name with its unit, and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
MIN_ITERATIONS = 3


def fresh_import():
    """Import the CLI as a first import would, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "bitrades" or m.startswith("bitrades.")]:
        del sys.modules[name]
    return importlib.import_module("bitrades.cli")


def set_up(workload, seed, workdir, repeats):
    """Set the workload up ``repeats`` times; returns (cli module, median
    set-up seconds)."""
    times = []
    for _ in range(repeats):
        with workloads.PROBE.section() as timed:
            cli = fresh_import()
            workload.setup(seed, workdir)
        times.append(timed.reference)
        gc.collect()
    return cli, statistics.median(times)


class Loop:
    """Runs iterations and keeps what they measured."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.iterations = []  # one list of Outcome per iteration
        self.maxrss = []  # high-water RSS after each iteration, MiB

    def run_once(self, main):
        if self.tracer is not None:
            self.tracer.run = len(self.iterations)
        outcomes = self.workload.iteration(main)
        self.iterations.append(outcomes)
        self.maxrss.append(tracing.maxrss_mb())
        for outcome in outcomes:
            for problem in outcome.problems:
                print(f"FAILED {self.workload.name}/{outcome.name}: {problem}",
                      file=sys.stderr)
        gc.collect()

    def run_for(self, main, seconds, minimum):
        while len(self.iterations) < minimum or self.timed() < seconds:
            self.run_once(main)

    def run_count(self, main, count):
        for _ in range(count):
            self.run_once(main)

    def timed(self, seconds="elapsed"):
        return sum(getattr(o, seconds) for o in self.outcomes())

    def outcomes(self):
        return [o for outcomes in self.iterations for o in outcomes]

    def rate(self, attr, seconds="reference"):
        """Median over iterations of work done per second of command time,
        in reference (or, with ``seconds="elapsed"``, wall) seconds."""
        return statistics.median(
            sum(getattr(o, attr) for o in outcomes)
            / sum(getattr(o, seconds) for o in outcomes)
            for outcomes in self.iterations)


def run_workload(name, seed, seconds, traced, workdir):
    """One run of one workload; returns (metrics {name: (value, unit)},
    information {name: (value, unit)}, attempted, failed)."""
    workload = workloads.make(name)
    info = {}
    if not traced:
        cli, setup_s = set_up(workload, seed, workdir, SETUP_REPEATS)
        loop = Loop(workload)
        loop.run_for(cli.main, seconds, MIN_ITERATIONS)
        metrics = {
            "cells_per_s": (loop.rate("cells"), "1/s"),
            "bitrades_per_s": (loop.rate("bitrades"), "1/s"),
            "peak_rss_mb": (loop.maxrss[MIN_ITERATIONS - 1], "MiB"),
            "setup_s": (setup_s, "s"),
        }
        info = {
            "wall.cells_per_s": (loop.rate("cells", "elapsed"), "1/s"),
            "wall.bitrades_per_s": (loop.rate("bitrades", "elapsed"), "1/s"),
        }
        outcomes = loop.outcomes()
    else:
        cli, _ = set_up(workload, seed, workdir, 1)
        plain = Loop(workload)
        plain.run_for(cli.main, seconds / 2, 1)
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            traced_loop = Loop(workload, tracer)
            traced_loop.run_count(cli.main, len(plain.iterations))
        finally:
            tracing.uninstall(patches)
        tracer.write(WORK / f"spans-{name}-{seed}.jsonl")
        values = tracing.layer_metrics(tracer, len(plain.iterations),
                                       plain.timed("reference"),
                                       traced_loop.timed("reference"))
        metrics = {metric: (values[metric], unit) for metric, unit in tracing.METRICS}
        outcomes = plain.outcomes() + traced_loop.outcomes()
    failed = sum(1 for o in outcomes if not o.ok)
    return metrics, info, len(outcomes), failed


def print_result(label, metrics, attempted, failed):
    width = max(len(m) for m in metrics)
    for metric, (value, unit) in metrics.items():
        print(f"{label}{metric:<{width}}  {value:.6g} {unit}")
    print(f"{label}{'fail_ratio':<{width}}  {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {}
    attempted = failed = 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics = {m: (v["value"], v["unit"]) for m, v in result["metrics"].items()}
        print_result(f"{name}  ", metrics, result["attempted"], result["failed"])
        for metric, (value, unit) in metrics.items():
            combined[f"{name}.{metric}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "bitrades").glob("*.py")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bitrades" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'bitrades' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, info, attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"src_lines={src_lines()}")
    for name, (value, unit) in info.items():
        print(f"# {name}  {value:.6g} {unit}")
    print_result("", metrics, attempted, failed)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
