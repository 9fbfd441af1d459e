"""Tests of the benchmark itself.

Run from the repository root:
    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark (as perfbench/run.py does), runs the C++ tests of
its arithmetic, and checks that short runs of every workload emit
exactly the metric names BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build(["perfbench", "perfbench_arith_test"])
        cls.binary = os.path.join(cls.bdir, "perfbench")
        cls.spec = load_spec()

    def run_bench(self, workload, trace):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", "3",
             "--seconds", "0.6", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_arithmetic(self):
        test = os.path.join(self.bdir, "perfbench_arith_test")
        out = subprocess.run([test], capture_output=True, text=True,
                             timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_declared_names_match_the_program(self):
        out = subprocess.run([self.binary, "--list-metrics"],
                             capture_output=True, text=True, timeout=30)
        listed = {"end_to_end": [], "per_layer": []}
        for line in out.stdout.splitlines():
            kind, name = line.split()
            listed[kind].append(name)
        for kind in listed:
            self.assertEqual(listed[kind],
                             [m["name"] for m in self.spec[kind]])

    def test_every_workload_emits_every_metric(self):
        e2e = [m["name"] for m in self.spec["end_to_end"]]
        layer = [m["name"] for m in self.spec["per_layer"]]
        units = {m["name"]: m["unit"]
                 for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for wl in [w["name"] for w in self.spec["workloads"]]:
            for trace, names in ((0, e2e), (1, layer)):
                with self.subTest(workload=wl, trace=trace):
                    result = self.run_bench(wl, trace)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), names)
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], units[name])
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    else:
                        # The modelled cost is measured on every workload.
                        for name, m in result["metrics"].items():
                            if name.startswith("model.penalty_share."):
                                self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
