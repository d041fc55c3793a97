#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: short mode of every workload.

    python3 e2ebench/test_e2ebench.py

Runs each workload's short mode untraced and traced through run.py, checks
the result line against BENCHMARK.json, and confirms that the driver's
correctness checks catch an injected violation (exit 1, no result).
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


def bench(workload, trace, *extra, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--short"] + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)


def all_metrics(workload, trace, seed=3):
    path = os.path.join(ROOT, ".bench_build", "results",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)["all_metrics"]


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.workloads = [w["name"] for w in json.load(f)["workloads"]]
        cls.workloads.append("wan_lossy")  # documented, not listed
        cls.end_to_end, cls.per_layer = run.catalog()

    def test_short_runs_report_every_metric(self):
        for workload in self.workloads:
            for trace, catalog in ((0, self.end_to_end),
                                   (1, self.per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    p = bench(workload, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     {m[0] for m in catalog})

    def test_traced_run_repeats_virtual_time(self):
        for workload in ("geo_batched", "wan_send"):
            with self.subTest(workload=workload):
                for trace in (0, 1):
                    p = bench(workload, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                plain, traced = all_metrics(workload, 0), all_metrics(
                    workload, 1)
                for name in ("latency_p50_ms", "latency_p99_ms",
                             "read_latency_p99_ms", "wan_bytes_per_op"):
                    self.assertEqual(plain[name], traced[name], name)

    def test_injected_violations_fail(self):
        cases = [("geo_batched", "read"), ("geo_batched", "order"),
                 ("geo_batched", "duplicate"), ("local_bulk", "duplicate"),
                 ("wan_send", "receive"), ("wan_send", "duplicate")]
        for workload, kind in cases:
            with self.subTest(workload=workload, inject=kind):
                p = bench(workload, 0, "--inject", kind)
                self.assertNotEqual(p.returncode, 0)
                self.assertEqual(p.stdout, "")
                self.assertIn("VIOLATION", p.stderr)


if __name__ == "__main__":
    unittest.main()
