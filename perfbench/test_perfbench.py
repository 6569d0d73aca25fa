"""Tests of the benchmark itself. Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check BENCHMARK.json against the benchmark's contract and against
`rationale.json`, then run every workload at smoke scale and require that
no operation fails and that the metrics printed are exactly the declared
ones, with the declared units. The checker's own teeth (a planted wrong
result must fail) are Rust unit tests: `cargo test --manifest-path
perfbench/Cargo.toml`.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.bench = load("BENCHMARK.json")

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(b)), 64 << 10)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)

    def test_names_units_directions(self):
        b = self.bench
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = [w["name"] for w in b["workloads"]]
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_rationale_covers_every_workload_and_layer_metric(self):
        r = load(os.path.join("perfbench", "rationale.json"))
        b = self.bench
        workloads = {w["name"] for w in b["workloads"]}
        e2e = {m["name"] for m in b["end_to_end"]}
        self.assertEqual(set(r["workloads"]), workloads)
        for w in r["workloads"].values():
            self.assertEqual(set(w), {"why", "loop", "load", "seed"})
        self.assertEqual(set(r["per_layer"]), {m["name"] for m in b["per_layer"]})
        for name, p in r["per_layer"].items():
            self.assertEqual(set(p), {"moves", "on", "no_change_on"}, name)
            self.assertTrue(set(p["moves"]) <= e2e, name)
            self.assertTrue(set(p["on"]) <= workloads, name)
            self.assertTrue(set(p["no_change_on"]) <= workloads, name)


class Smoke(unittest.TestCase):
    """Every workload at smoke scale: nothing fails, names match."""

    def setUp(self):
        self.bench = load("BENCHMARK.json")

    def check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, "fail_ratio must be 0")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_run_of_each_workload(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(run(w["name"], 0), self.bench["end_to_end"])

    def test_traced_run(self):
        self.check(run("loops", 1), self.bench["per_layer"])


if __name__ == "__main__":
    unittest.main()
