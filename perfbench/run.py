"""Served-path benchmark: decide / enforce / ingest over loopback TCP.

Run from the repository root::

    python3 perfbench/run.py --workload decide --seed 1 --seconds 8 --trace 0

A spawned server process runs a default ``AsyncDataServer`` over the
Table 3 streams and policies; this process generates the load.  Each
run alternates 48 times between a *sequential* phase (one
connection, one op outstanding, the paper's Figure 6/7 replay method)
and a *capacity* phase (two connections, each with a fixed number of
pipelined ops outstanding).  Every phase sends a fixed number of ops,
sized so that the phases take about ``--seconds / 96`` each on a
2-CPU host.  Replies are checked against the workload's oracle between
slices, off the clock, and one more server is set up after every
twelfth slice; ``setup_s`` is the median of the run's five set-ups.
The server times a fixed piece of work around every phase, and the
phase's timings are scaled by it to a reference host speed
(``perfbench/calibrate.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` also replays the sequential phase in-process with a span
around every layer call and reports the per-layer metrics.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object.  The exit code is 1 when a correctness
check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run; sets the ops each phase sends")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    # The metric names and units every run reports.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end_units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer_units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads
    from perfbench.checks import ORACLES, check
    from perfbench.metrics import class_p50, end_to_end, served_layers, traced_layers
    from perfbench.served_run import run_served

    fingerprint = {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("host: " + " ".join(f"{key}={value}" for key, value in fingerprint.items()))
    workload = workloads.build(args.workload, args.seed, args.seconds)
    # The oracle's worker processes start before any set-up is timed.
    oracle = ORACLES[args.workload](workload)
    try:
        run = asyncio.run(run_served(workload, oracle))
        verdict = check(workload, run, oracle)
    finally:
        oracle.close()

    # Served-run layer numbers are printed on every run; the traced
    # replay runs only with --trace 1.
    metrics = {**end_to_end(run, workload), **served_layers(run, workload)}
    metrics["fail_ratio"] = verdict.failed / max(verdict.attempted, 1)
    lines = [
        "setup: " + ", ".join(f"{s['setup_s']:.3f}" for s in run.setups) + " s",
    ]
    for number, piece in enumerate(run.slices):
        lines.append(
            f"slice {number}: sequential {len(piece.sequential.replies)} ops in "
            f"{piece.sequential_wall_s:.2f} s (p50 "
            f"{class_p50(workload, piece.sequential) * 1e3:.3f} ms, server cpu "
            f"{piece.sequential_cpu_s / len(piece.sequential.replies) * 1e6:.1f} us/op), capacity "
            f"{sum(len(r.replies) for r in piece.capacity)} ops in "
            f"{piece.capacity_wall_s:.2f} s; spin {piece.sequential_spin_s * 1e3:.3f} / "
            f"{piece.capacity_spin_s * 1e3:.3f} ms"
        )
    if metrics["client.busy_share"] > metrics["server.busy_share"]:
        lines.append(
            "FLAG: the generator was busier than the server in the capacity "
            "phase, so capacity_ops_s may measure the generator"
        )
    units = end_to_end_units
    if args.trace:
        traced, trace_lines, trace_problems = traced_layers(
            workload, run, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
            fingerprint,
        )
        metrics.update(traced)
        verdict.problems.extend(trace_problems)
        lines += trace_lines
        units = per_layer_units

    for line in lines + verdict.notes:
        print(f"{args.workload} {line}")
    for name, unit in {**end_to_end_units, **per_layer_units}.items():
        if name in metrics:
            print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} attempted={verdict.attempted} failed={verdict.failed} "
          f"correct={verdict.correct}")
    for problem in verdict.problems:
        print(f"{args.workload} CHECK FAILED: {problem}")

    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as out:
        json.dump({"host": fingerprint, "result": result, "problems": verdict.problems,
                   "notes": verdict.notes}, out, indent=1)
    print(json.dumps(result))
    return 0 if verdict.correct else 1


def stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process that ``multiprocessing``
    starts beside spawned children, so no process outlives the run.
    Python offers no public call for this, so the private ``_stop`` is
    used when present."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_resource_tracker()
    sys.exit(status)
