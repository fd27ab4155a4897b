#!/usr/bin/env python3
"""The benchmark's own tests, on reduced-size inputs.

    python3 wallbench/test_wallbench.py

- Every workload prints every metric BENCHMARK.json names, with its
  unit: the end-to-end ones untraced, the per-layer ones traced; a
  timed run split into several processes prints them combined.
- Modeled digests and exact counts are equal between the untraced and
  the traced run, and between gcWorkers=1 and the default; digests are
  equal under the benchmark's fixed malloc policy and glibc's default.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fixed work per workload: two corpus sweeps, two service calls, four
# heap rounds (traced runs trace every other sweep, call or round).
UNITS = {"corpus": 210, "service": 2, "heap": 4}
LAYER = re.compile(
    r"^layer\s+(\S+)\s+(\S+)\s+(\S+)\s+\[(\w+)\].*\(from (\S+)\)$")
DIGEST = re.compile(r"^digest\s+(golden|seed)\.\S+\s+([0-9a-f]+)")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

_cache = {}


def run(workload, trace, gc_workers=0, default_malloc=False):
    key = (workload, trace, gc_workers, default_malloc)
    if key not in _cache:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--small",
               "--units", str(UNITS[workload]),
               "--gc-workers", str(gc_workers)]
        if default_malloc:
            cmd.append("--default-malloc")
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.splitlines()
        digests = dict(m.groups() for m in map(DIGEST.match, out) if m)
        counts = {}
        for m in filter(None, map(LAYER.match, out)):
            name, value, unit, plane, source = m.groups()
            if unit == "count" and plane == "modeled":
                counts[(name, source)] = float(value)
        _cache[key] = (json.loads(out[-1]), digests, counts)
    return _cache[key]


class MetricsPresent(unittest.TestCase):
    def check(self, trace, wanted):
        for w in UNITS:
            res, _, _ = run(w, trace)
            with self.subTest(workload=w, trace=trace):
                self.assertTrue(res["correct"], res)
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = res["metrics"]
                self.assertEqual(sorted(got), sorted(m["name"] for m in wanted))
                for m in wanted:
                    self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
                    self.assertTrue(math.isfinite(got[m["name"]]["value"]), m["name"])

    def test_end_to_end_untraced(self):
        self.check(0, SPEC["end_to_end"])
        for w in UNITS:
            for name, m in run(w, 0)[0]["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")

    def test_per_layer_traced(self):
        self.check(1, SPEC["per_layer"])

    def test_timed_run_combines_parts(self):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", "corpus", "--seed", "5", "--seconds", "1",
               "--trace", "0", "--small"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.splitlines()
        parts = [l for l in out if l.startswith("# wallbench ")]
        self.assertGreater(len(parts), 1)
        res = json.loads(out[-1])
        self.assertTrue(res["correct"], res)
        self.assertEqual(sorted(res["metrics"]),
                         sorted(m["name"] for m in SPEC["end_to_end"]))
        for name, m in res["metrics"].items():
            self.assertGreater(m["value"], 0, name)


class Determinism(unittest.TestCase):
    def test_digests_and_counts_repeat(self):
        for w in UNITS:
            base = run(w, 0)
            for other in (run(w, 1), run(w, 1, gc_workers=1)):
                with self.subTest(workload=w):
                    self.assertEqual(base[1], other[1])
                    # The workload's own counts (reduced-size mode).
                    src = w + "-small"
                    own = {k: v for k, v in base[2].items() if k[1] == src}
                    self.assertTrue(own)
                    self.assertEqual(own, {k: v for k, v in other[2].items()
                                           if k[1] == src})

    def test_digests_do_not_depend_on_malloc_policy(self):
        for w in UNITS:
            with self.subTest(workload=w):
                self.assertEqual(run(w, 0)[1],
                                 run(w, 0, default_malloc=True)[1])

    def test_traced_counts_repeat_across_gc_workers(self):
        for w in UNITS:
            with self.subTest(workload=w):
                self.assertEqual(run(w, 1)[2], run(w, 1, gc_workers=1)[2])


if __name__ == "__main__":
    unittest.main()
