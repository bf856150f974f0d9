"""Tests of the benchmark's own contract.

    python3 -m unittest discover -s xgbench -p 'test_*.py'

DeclarationTest checks BENCHMARK.json (instant). WorkloadTest builds the
driver through run.py and runs every workload briefly in both modes; it
takes a few minutes the first time, while the driver builds.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fabric_day", "serve_herd", "cfd_job")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class DeclarationTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_declaration()

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_command_and_paths(self):
        cmd = self.bench["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        paths = self.bench["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH_RE)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        # Every file the command names lies under one of the paths.
        for arg in cmd[1:]:
            if os.path.exists(os.path.join(ROOT, arg)):
                self.assertTrue(any(arg == p or arg.startswith(p + "/")
                                    for p in paths), arg)
        self.assertIsInstance(self.bench["run_seconds"], int)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_workloads(self):
        wl = self.bench["workloads"]
        self.assertEqual(tuple(w["name"] for w in wl), WORKLOADS)
        for w in wl:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_name_and_unit_syntax(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        self.assertTrue(1 <= len(self.bench["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.bench["per_layer"]) <= 128)

    def test_setup_metric(self):
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.bench["end_to_end"]))


def run_workload(workload, trace, seed=5, seconds=0.5):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=1800)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d failed:\n%s" %
                             (workload, trace, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class WorkloadTest(unittest.TestCase):
    """Per-workload metric sets, layer separation and determinism."""

    @classmethod
    def setUpClass(cls):
        bench = load_declaration()
        cls.e2e = {m["name"] for m in bench["end_to_end"]}
        cls.layer = {m["name"] for m in bench["per_layer"]}
        cls.traced = {w: run_workload(w, 1) for w in WORKLOADS}

    def value(self, workload, name):
        return self.traced[workload]["metrics"][name]["value"]

    def test_end_to_end_sets(self):
        for w in WORKLOADS:
            result = run_workload(w, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), self.e2e)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, "%s %s" % (w, name))

    def test_per_layer_sets(self):
        for w in WORKLOADS:
            self.assertTrue(self.traced[w]["correct"])
            self.assertEqual(set(self.traced[w]["metrics"]), self.layer)

    def test_layer_separation(self):
        for w in ("fabric_day", "serve_herd"):
            self.assertEqual(self.value(w, "cfd.cell_updates"), 0)
            self.assertGreater(self.value(w, "sim.events"), 0)
            self.assertGreater(self.value(w, "obs.spans"), 0)
        self.assertEqual(self.value("cfd_job", "sim.events"), 0)
        self.assertEqual(self.value("cfd_job", "obs.spans"), 0)
        self.assertGreater(self.value("cfd_job", "cfd.cell_updates"), 0)
        self.assertEqual(self.value("fabric_day", "serve.requests"), 0)
        self.assertGreater(self.value("serve_herd", "serve.requests"), 0)
        self.assertGreaterEqual(self.value("serve_herd", "sim.events"),
                                10 * self.value("fabric_day", "sim.events"))

    def test_virtual_metrics_repeat_per_seed(self):
        again = run_workload("fabric_day", 1)
        virtual = [n for n in self.layer
                   if n.startswith(("virt.", "stage.", "sim.events",
                                    "obs.spans", "cspot.", "wan.", "laminar.",
                                    "pilot.", "hpc.", "resil.", "fault."))]
        self.assertGreater(len(virtual), 20)
        for name in virtual:
            self.assertEqual(again["metrics"][name]["value"],
                             self.value("fabric_day", name), name)


if __name__ == "__main__":
    unittest.main()
