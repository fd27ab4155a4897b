#!/usr/bin/env python3
"""Build and run golfcc's wall-clock benchmark.

    python3 wallbench/run.py --workload corpus|service|heap --seed N \
        --seconds S --trace 0|1 [--units N] [--small] [--gc-workers N]
        [--default-malloc]

Run from the root of a golfcc checkout. The first run configures and
builds golfcc from ../src together with the benchmark into
.bench_build/wallbench (later runs rebuild incrementally); the build log
goes to stderr so the last line of stdout stays the result object.
Spans of a traced run are written to .bench_build/traces/.

A timed untraced run is PARTS[workload] processes in turn, each with
its own seed derived from --seed and an equal share of --seconds; the
last line combines them (see combine()). Traced and fixed-units runs
are one process.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
BINARY = os.path.join(BUILD, "wallbench")
# The benchmark must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
# A timed, untraced run is split into several processes in turn. The
# speed of one process stays put for its whole life but differs from the
# next one's by up to ~40% on a shared 4-vCPU VM (the same corpus seed,
# pinned to the same vCPU, ran at 2100 and 2600 programs/s in consecutive
# processes, and one process in five ran at ~3000), so a run reports the
# median over twenty processes. The heap workload's set-up runs ten
# full-size golden rounds, so it uses fewer.
PARTS = {"corpus": 20, "service": 20, "heap": 3}


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(BUILD)
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "service", "heap"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--units", type=int, default=0,
                    help="fixed units instead of --seconds (tests)")
    ap.add_argument("--small", action="store_true",
                    help="reduced-size inputs (tests)")
    ap.add_argument("--gc-workers", type=int, default=0,
                    help="rt::Config::gcWorkers; 0 = nproc (the default)")
    ap.add_argument("--default-malloc", action="store_true",
                    help="leave glibc's malloc thresholds alone (ungated: "
                    "runs spread too widely to gate)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"wallbench: build failed: {e}", file=sys.stderr)
        return 1

    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--golden", os.path.join(HERE, "golden.txt"),
           "--sha", git_sha(),
           "--units", str(args.units), "--gc-workers", str(args.gc_workers)]
    if args.small:
        cmd.append("--small")
    if args.default_malloc:
        cmd.append("--default-malloc")
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    if args.trace == "1" or args.units:
        try:
            return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"wallbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
    return run_parts(cmd, args.seed, args.seconds, PARTS[args.workload])


def run_parts(cmd, seed, seconds, parts):
    """Run a timed, untraced measurement as `parts` processes in turn,
    part k with seed parts * seed + k and seconds / parts, and print
    their combined result as the last line."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for k in range(parts):
        part = list(cmd)
        part[part.index("--seed") + 1] = str(parts * seed + k)
        part[part.index("--seconds") + 1] = repr(seconds / parts)
        try:
            proc = subprocess.run(part, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"wallbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"wallbench: part {k} failed (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        results.append(json.loads(lines[-1]))
    print(json.dumps(combine(results)))
    return 0


def combine(results):
    """One result from the parts': counts and cpu_s (CPU time over the
    timed phase) add up; every other metric is the median of the parts'
    values, each part being a replicate of the whole workload."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = sum(values) if name == "cpu_s" else statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}

if __name__ == "__main__":
    sys.exit(main())
