#!/usr/bin/env python3
"""Builds and runs Blaze's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the Blaze libraries plus the benchmark program) in Release
mode under .bench_build/perfbench; later calls rebuild only what changed.
NAME is one of the workloads in BENCHMARK.json, or "all" to run each in
turn.

Every metric the run measured is printed as "name value unit". The last
line is one JSON object with the keys correct, attempted, failed and
metrics: the end_to_end metrics of BENCHMARK.json when --trace is 0, its
per_layer metrics when --trace is 1. perfbench/METRICS.md describes them.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_one(workload, args):
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: exited with code {proc.returncode}")
        return None
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON")
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log(f"unknown workload {args.workload}; choose from {names} or all")
        return 2
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    if not build():
        return 1
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (names if args.workload == "all" else [args.workload]):
        got = run_one(workload, args)
        if got is None:
            return 1
        missing = [m for m in wanted if m not in got["metrics"]]
        if missing:
            log(f"{workload}: metrics missing: {missing}")
            return 1
        result["correct"] = result["correct"] and got["correct"]
        result["attempted"] += got["attempted"]
        result["failed"] += got["failed"]
        prefix = "" if args.workload != "all" else workload + "/"
        for m in wanted:
            result["metrics"][prefix + m] = got["metrics"][m]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
