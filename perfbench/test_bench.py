#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny --quick datasets.

Run from the root of a checkout:

    python3 perfbench/test_bench.py

They check that every workload prints exactly the metrics BENCHMARK.json
lists, that every count the traced run reports repeats exactly for a
fixed seed, that a second seed changes the inputs but not the metric
names, and that the command fails without a result outside a checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that depend on timing, not on the inputs: the garbage
# collector's pacing.
TIMING_DEPENDENT = {"gc.major_collections"}


def run(workload, seed, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out


def result(out):
    lines = out.stdout.strip().split("\n")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


class Bench(unittest.TestCase):
    def test_metric_names_and_correctness(self):
        for wl in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = run(wl, 1, trace)
                self.assertEqual(out.returncode, 0, out.stderr)
                detail, res = result(out)
                self.assertEqual(
                    set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, f"{wl} trace {trace}")
                if trace == 0:
                    # Every scaled time has its raw value beside it.
                    self.assertEqual(set(detail["raw"]) | {"peak_rss_mb"},
                                     set(want))
                    self.assertGreater(detail["read_scale"], 0)
                self.assertEqual(detail["workload"], wl)
                self.assertEqual(detail["seed"], 1)

    def test_counts_repeat_exactly(self):
        counts = [m["name"] for m in SPEC["per_layer"]
                  if m["unit"] == "count" and m["name"] not in TIMING_DEPENDENT]
        for wl in WORKLOADS:
            first = result(run(wl, 7, 1))[1]["metrics"]
            second = result(run(wl, 7, 1))[1]["metrics"]
            for name in counts + ["wal.bytes_per_triple"]:
                self.assertEqual(first[name]["value"], second[name]["value"],
                                 f"{wl}: {name}")

    def test_seed_changes_inputs_not_names(self):
        for wl in WORKLOADS:
            d1, r1 = result(run(wl, 1, 0))
            d2, r2 = result(run(wl, 2, 0))
            d1b, _ = result(run(wl, 1, 0))
            self.assertNotEqual(d1["inputs_digest"], d2["inputs_digest"], wl)
            self.assertEqual(d1["inputs_digest"], d1b["inputs_digest"], wl)
            self.assertEqual(set(r1["metrics"]), set(r2["metrics"]))

    def test_fails_without_a_checkout(self):
        bare = os.path.join(ROOT, ".bench_run", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run(WORKLOADS[0], 1, 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
