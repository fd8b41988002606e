#!/usr/bin/env python3
"""Quick-scale tests of the benchmark command. Run from the repository root:

    python3 perfbench/test_run.py

Each workload runs for one second on small shapes (`--quick`), untraced and
traced. The result line must carry exactly the metric names and units that
`BENCHMARK.json` lists, every output check must pass, and a tail percentile
may only be missing (null) when it is reported as such.
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
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TAILS = ("_p90_", "_p99_")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class QuickRuns(unittest.TestCase):
    def check(self, trace, listed):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                p = run(w["name"], trace)
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                lines = p.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                provenance = json.loads(lines[-2])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                self.assertEqual(list(metrics), [m["name"] for m in listed])
                for m in listed:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    value = metrics[m["name"]]["value"]
                    if value is None:
                        self.assertTrue(any(t in m["name"] for t in TAILS), m["name"])
                        self.assertIn(m["name"], provenance["missing"])
                    else:
                        self.assertIsInstance(value, (int, float))
                self.assertEqual(provenance["workload"], w["name"])
                self.assertEqual(set(provenance["samples"]), set(metrics))

    def test_untraced_runs_report_every_end_to_end_metric(self):
        self.check(0, BENCH["end_to_end"])

    def test_traced_runs_report_every_per_layer_metric(self):
        self.check(1, BENCH["per_layer"])

    def test_fails_without_printing_a_result_when_sources_are_missing(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            p = run("budgeted-clear", 0, cwd=tmp)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
