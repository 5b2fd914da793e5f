#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a one-second run length,
untraced and traced, must pass the correctness gate and print exactly the
metrics BENCHMARK.json declares, with their units.

    python3 perfbench/test_smoke.py        (from the repository root)
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    command = [*SPEC["command"], "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if result.returncode != 0:
        raise AssertionError(f"{workload} exited {result.returncode}:\n{result.stderr[-3000:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check(self, trace, declared):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                result = run(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                units = {m["name"]: m["unit"] for m in declared}
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, units)
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == 0:
                        self.assertGreater(m["value"], 0, name)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])

    def test_unknown_workload_is_refused(self):
        command = [*SPEC["command"], "--workload", "nope", "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
        result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    sys.exit(unittest.main())
