#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Each test runs the benchmark on tiny inputs (a few small operations per
workload), so the whole file takes about a minute once the benchmark is
built; the first run builds it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, extra=(), root=ROOT):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=root,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def details(lines):
    """The details the human-readable part of the output carries."""
    for line in lines:
        if line.startswith("  details: "):
            return json.loads(line[len("  details: "):])
    raise AssertionError("no details line in output")


class BenchmarkTest(unittest.TestCase):

    def test_tiny_run_of_every_workload_has_no_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload)
                self.assertEqual(code, 0, "\n".join(lines))
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertIn("fail_ratio", lines[1])

    def test_printed_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run(workload, trace=trace)
                    self.assertEqual(code, 0, "\n".join(lines))
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        expected)
                    for metric in result["metrics"].values():
                        self.assertEqual(set(metric), {"value", "unit"})

    def test_same_seed_gives_same_operations_and_outputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = details(run(workload, seed=7)[1])
                again = details(run(workload, seed=7)[1])
                other = details(run(workload, seed=8)[1])
                self.assertEqual(first["input_digest"],
                                 again["input_digest"])
                self.assertEqual(first["output_digest"],
                                 again["output_digest"])
                self.assertNotEqual(first["input_digest"],
                                    other["input_digest"])

    def test_injected_wrong_value_is_counted_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload, extra=["--inject-wrong"])
                self.assertEqual(code, 1, "\n".join(lines))
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_without_the_library_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run(WORKLOADS[0], root=bare)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
