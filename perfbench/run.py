#!/usr/bin/env python3
"""Builds and runs the end-to-end DP-Sync benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload analyst-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--workload all` runs the three workloads one after another.

The first run configures and builds perfbench/ (and through it the
repository's libraries) in Release mode under .bench_build/; later runs
only re-check the build. The benchmark binary prints a metric table and one
JSON line; this script passes the table through and ends with one JSON
line holding the metrics BENCHMARK.json declares: the end-to-end ones
with --trace 0, the per-layer ones with --trace 1. It exits nonzero when
the build fails, when an answer is wrong, or when a declared metric is
missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD_DIR = BUILD_ROOT / "perfbench"
DATA_DIR = BUILD_ROOT / "perfbench-data"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("sync-replicated", "analyst-mix", "oblivious-scan")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_ROOT / "perfbench-build.log"
    # Configuring again is a no-op when nothing changed, and it repairs a
    # build tree whose earlier configure failed.
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
              "-j", str(min(os.cpu_count() or 1, 4))]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")


def run(spec, workload, args):
    """Runs one workload; returns True when every answer was correct."""
    command = [str(BINARY), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--data-dir", str(DATA_DIR)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for declared in spec[group]:
        name = declared["name"]
        got = result[group].get(name)
        if result["correct"] and got is None:
            fail(f"metric {name} missing from the {workload} run")
        if got is not None:
            if got["unit"] != declared["unit"]:
                fail(f"metric {name} has unit {got['unit']}, "
                     f"BENCHMARK.json says {declared['unit']}")
            metrics[name] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return proc.returncode == 0 and result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())

    build()
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run(spec, workload, args) for workload in workloads]
    if not all(results):
        sys.exit(1)


if __name__ == "__main__":
    main()
