#!/usr/bin/env python3
"""Tests of the bpsio benchmark itself.

    python3 -m unittest discover -s bpsbench -p 'test_*.py'     (from the repo root)

CheckTests feed the output checks tampered counts (one record dropped, a B
off by one) and expect them to trip; they need no build. SmokeTests run
every workload at the tiny input size, untraced and traced, and need the
build run.py makes on first use (a few minutes).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


class CheckTests(unittest.TestCase):
    def live_ok(self):
        sent, blocks = 1000, 8000
        agent = {"records": sent, "forward_spilled": 0, "forward_dropped": 0}
        collector = {"records": sent}
        drains = {"a": {"records": sent, "blocks": blocks}, "c": {"records": sent, "blocks": blocks}}
        return sent, blocks, agent, collector, drains

    def test_live_balanced_passes(self):
        self.assertEqual(run.check_live(*self.live_ok()), [])

    def test_live_dropped_record_trips(self):
        for where in ("agent", "collector", "drain"):
            sent, blocks, agent, collector, drains = self.live_ok()
            if where == "agent":
                agent["records"] -= 1
            elif where == "collector":
                collector["records"] -= 1
            else:
                drains["c"]["records"] -= 1
            self.assertTrue(run.check_live(sent, blocks, agent, collector, drains), where)

    def test_live_b_off_by_one_trips(self):
        sent, blocks, agent, collector, drains = self.live_ok()
        drains["a"]["blocks"] += 1
        self.assertTrue(run.check_live(sent, blocks, agent, collector, drains))

    def test_live_forward_loss_trips(self):
        sent, blocks, agent, collector, drains = self.live_ok()
        agent["forward_dropped"] = 1
        self.assertTrue(run.check_live(sent, blocks, agent, collector, drains))

    def test_capture_spill(self):
        report = {"records": "100", "B": "800"}
        self.assertEqual(run.check_spill(100, report), [])
        self.assertTrue(run.check_spill(101, report))
        self.assertTrue(run.check_spill(100, dict(report, B="801")))

    def test_capture_socket(self):
        collector = {"records": 50, "blocks": 400}
        self.assertEqual(run.check_socket(50, collector, 0), [])
        self.assertTrue(run.check_socket(50, {"records": 49, "blocks": 400}, 0))
        self.assertTrue(run.check_socket(50, {"records": 50, "blocks": 399}, 0))
        self.assertTrue(run.check_socket(50, collector, 1))

    def test_offline(self):
        gen = {"records": 10, "processes": 2, "blocks": 99}
        report = {"records": "10", "processes": "2", "B": "99"}
        self.assertEqual(run.check_offline(report, gen), [])
        self.assertTrue(run.check_offline(dict(report, records="9"), gen))
        self.assertTrue(run.check_offline(dict(report, B="100"), gen))

    def test_zoo(self):
        plans = {"bert": {"B": "10", "accesses": "2"}}
        self.assertEqual(run.check_zoo({"zoo.bert": {"B": "10", "records": "2"}}, plans), [])
        self.assertTrue(run.check_zoo({"zoo.bert": {"B": "11", "records": "2"}}, plans))
        self.assertTrue(run.check_zoo({"zoo.bert": {"B": "10", "records": "1"}}, plans))
        self.assertTrue(run.check_zoo({}, plans))


class SmokeTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace):
        out = subprocess.run([sys.executable, "bpsbench/run.py", "--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                             cwd=ROOT, capture_output=True, text=True, timeout=1500)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        declared = {m["name"] for m in self.spec["per_layer" if trace else "end_to_end"]}
        self.assertEqual(set(result["metrics"]), declared)

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.run_bench(workload, 0)

    def test_traced(self):
        self.run_bench("live_fanin", 1)


if __name__ == "__main__":
    unittest.main()
