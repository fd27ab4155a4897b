#!/usr/bin/env python3
"""Run the benchmark N times per workload and report, per metric, the
median, the quartiles and the spread over the runs.

    python3 wallbench/repeat.py [--workload W ...] [--runs 10]
        [--seed-base 1] [--seconds S] [--trace 0|1]

Run i uses seed seed-base + i. The spread is (q3 - q1) / median with
the quartiles of statistics.quantiles(values, n=4), the same measure
BENCHMARK.json's bounds are checked against; a metric is flagged when
its spread exceeds a third of its bound. Every number is also tagged
with its plane (all end-to-end and timing metrics are `wall`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    host = next((l for l in out if l.startswith("# host")), "# host ?")
    return host, json.loads(out[-1])


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=["corpus", "service", "heap"],
                    help="default: the workloads BENCHMARK.json gates")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values, host, incorrect = {}, None, 0
        for i in range(args.runs):
            host, res = run_once(workload, args.seed_base + i, args.seconds,
                                 args.trace)
            incorrect += 0 if res["correct"] else 1
            for name, m in res["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"== {workload}: {args.runs} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.runs - 1}, {incorrect} incorrect")
        print(host)
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else "SPREAD > bound/3"
                steady &= spread < bound / 3
            print(f"  {name:28s} median {med:14.6g} {unit:6s} [wall] "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {100 * spread:6.2f}% "
                  f"{'bound %g%% ' % (100 * bound) if bound else ''}{flag}")
        steady &= incorrect == 0
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
