#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_run.py

The last two tests build the harness and run the observed workload in each
trace mode (about a minute and a half on a 4-core box)."""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_py(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


class Catalog(unittest.TestCase):
    def test_end_to_end_names_and_units_match(self):
        self.assertEqual(list(run.END_TO_END.items()),
                         [(m["name"], m["unit"]) for m in SPEC["end_to_end"]])

    def test_per_layer_names_and_units_match(self):
        self.assertEqual([(n, u) for _, n, u in run.PER_LAYER],
                         [(m["name"], m["unit"]) for m in SPEC["per_layer"]])

    def test_workloads_match(self):
        self.assertEqual(list(run.WORKLOADS),
                         [w["name"] for w in SPEC["workloads"]])


class BadArguments(unittest.TestCase):
    def assert_exit_2(self, *args):
        out = run_py(*args)
        self.assertEqual(out.returncode, 2, out.stderr)
        self.assertEqual(out.stdout, "")

    def test_unknown_workload(self):
        self.assert_exit_2("--workload", "nope")

    def test_missing_workload(self):
        self.assert_exit_2("--seed", "1")

    def test_unknown_flag(self):
        self.assert_exit_2("--workload", "fig13", "--jobs", "4")

    def test_abbreviated_flag(self):
        self.assert_exit_2("--work", "fig13")

    def test_bad_trace_value(self):
        self.assert_exit_2("--workload", "fig13", "--trace", "2")

    def test_bad_seconds(self):
        self.assert_exit_2("--workload", "fig13", "--seconds", "0")


class PrintedMetrics(unittest.TestCase):
    def check(self, trace, listed):
        out = run_py("--workload", "observed", "--seed", "7",
                     "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = [(n, m["unit"]) for n, m in result["metrics"].items()]
        self.assertEqual(printed, [(m["name"], m["unit"]) for m in listed])
        return result

    def test_untraced_run_prints_end_to_end_metrics(self):
        result = self.check(0, SPEC["end_to_end"])
        self.assertEqual(result["metrics"]["pass_rate"]["value"], 1.0)

    def test_traced_run_prints_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
