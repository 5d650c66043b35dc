#!/usr/bin/env python3
"""Self-test of the pod-allocator benchmark.

Runs every workload at the tiny size for one second, untraced and traced,
and checks that the run is correct (no failed operation, invariant sweeps
clean) and prints exactly the metrics BENCHMARK.json names, with their
units. Run from the repository root:

    python3 perfbench/tests/test_selftest.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class SelfTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertIn("failed_op_ratio = 0 ratio", "\n".join(lines))
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in wanted])
        for m in wanted:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
            if not trace:
                self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

    def test_workloads(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


if __name__ == "__main__":
    unittest.main()
