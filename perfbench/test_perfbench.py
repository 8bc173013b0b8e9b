#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny-circuit smoke workloads.

    python3 perfbench/test_perfbench.py

Every workload path (in-process at 1 and nproc threads, forked workers with
a journal) runs untraced and traced through run.py, and the result lines
are checked against the BENCHMARK.json contract. The verdict on a report
with a changed output or a failed check is checked without a run. Takes well under a minute
once motbench is built.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

import run as bench

WORKLOADS = [w["name"] for w in bench.load_json("BENCHMARK.json", bench.ROOT)["workloads"]]
SPEC = bench.load_json("BENCHMARK.json", bench.ROOT)


def run_py(*args):
    return subprocess.run([sys.executable, os.path.join(bench.BENCH_DIR, "run.py"), *args],
                          capture_output=True, text=True, cwd=bench.ROOT)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()

    def result(self, workload, trace, seed=3):
        proc = run_py("--smoke", "--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-2]), json.loads(lines[-1])

    def check_contract(self, res, trace):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(res["correct"], True)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_runs_meet_the_contract(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                info, res = self.result(w, 0)
                self.check_contract(res, 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])
                cfg = info["config"]
                for key in ("nproc", "git_commit", "threads", "workers", "transport",
                            "build_type"):
                    self.assertIn(key, cfg)
                self.assertIn("conv_detected", info["pins_compared"])
                if cfg["transport"] == "fork":
                    self.assertIn("items_sha", info["pins_compared"])

    def test_traced_runs_write_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                info, res = self.result(w, 1)
                self.check_contract(res, 1)
                with open(info["trace_file"]) as f:
                    spans = [json.loads(line) for line in f]
                names = {s["name"] for s in spans}
                for layer in ("fault.collapse", "sim.fault_free", "faultsim.parallel.run",
                              "mot.collector.collect", "mot.proposed.simulate",
                              "faultsim.checkpoint.append", "faultsim.batch.run",
                              "faultsim.supervisor.run"):
                    self.assertIn(layer, names)
                for s in spans:
                    self.assertEqual(set(s), {"id", "name", "start", "end", "parent", "workload"})
                    self.assertLessEqual(s["start"], s["end"])
                    self.assertEqual(s["workload"], w)

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        info_a, _ = self.result("table2_s5378", 0, seed=5)
        info_b, _ = self.result("table2_s5378", 0, seed=6)
        self.assertNotEqual(info_a["outputs"], info_b["outputs"])
        info_c, _ = self.result("table2_s5378", 0, seed=5 + 8)
        self.assertEqual(info_a["outputs"], info_c["outputs"])

    def test_refuses_a_changed_hitec_input(self):
        with open(os.path.join(bench.BENCH_DIR, "inputs", "hitec_s5378.pat")) as f:
            lines = f.read().splitlines(keepends=True)
        last = lines[-1]
        lines[-1] = ("1" if last[0] == "0" else "0") + last[1:]
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "hitec_s5378.pat"), "w") as f:
                f.writelines(lines)
            proc = subprocess.run([bench.MOTBENCH, "--workload", "hitec_s5378_fork",
                                   "--seed", "0", "--seconds", "1", "--trace", "0",
                                   "--inputs", d, "--work", os.path.join(d, "work")],
                                  capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("SHA-256", proc.stderr)
        self.assertEqual(proc.stdout, "")


class VerdictTest(unittest.TestCase):
    """A wrong output or a failed check makes the result incorrect."""

    PINS = bench.load_json("pins.json")["full"]

    def report(self, workload="hitec_s5378_fork", **changes):
        outputs = dict(self.PINS[workload]["0"], **changes)
        return {"config": {"workload": workload, "input_seed": 0},
                "outputs": outputs, "checks": [{"name": "c", "ok": True, "detail": ""}]}

    def test_pinned_outputs_are_correct(self):
        correct, problems, compared = bench.verdict(self.report(), self.PINS)
        self.assertTrue(correct, problems)
        self.assertIn("items_sha", compared)

    def test_a_changed_output_is_incorrect(self):
        pin = self.PINS["table2_s5378"]["0"]
        for key, value in (("conv_detected", pin["conv_detected"] + 1),
                           ("avg_det", pin["avg_det"] * 2),
                           ("items_sha", "0" * 64)):
            with self.subTest(key=key):
                correct, problems, _ = bench.verdict(
                    self.report("table2_s5378", **{key: value}), self.PINS)
                self.assertFalse(correct)
                self.assertIn(key, problems[0])

    def test_a_missing_output_is_incorrect(self):
        report = self.report()
        del report["outputs"]["proposed_extra"]
        self.assertFalse(bench.verdict(report, self.PINS)[0])

    def test_a_failed_check_is_incorrect(self):
        report = self.report()
        report["checks"].append({"name": "journal_eq_merged", "ok": False, "detail": ""})
        correct, problems, _ = bench.verdict(report, self.PINS)
        self.assertFalse(correct)
        self.assertIn("journal_eq_merged", problems[0])


if __name__ == "__main__":
    unittest.main()
