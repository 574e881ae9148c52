#!/usr/bin/env python3
"""Smoke tests of the benchmark itself (tiny inputs, a second per run).

  python3 perfbench/test_smoke.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--smoke, untraced and traced, and checks the result line against the
contract: exactly the keys correct/attempted/failed/metrics, every declared
metric present with its unit, end-to-end metrics non-zero, a valid trace.
Also checks that an unknown workload and a directory holding only the
benchmark (no library sources) fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:] + proc.stderr[-4000:])
        res = result_line(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(res["correct"], True)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        declared = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
            elif m["name"] != "bench.trace_overhead":  # a difference: noise can make it < 0
                self.assertGreaterEqual(got["value"], 0, m["name"])
        return res

    def test_every_workload_untraced(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)

    def test_every_workload_traced(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                res = self.check_run(w["name"], 1)
                net = [v["value"] for k, v in res["metrics"].items()
                       if k.startswith("net.") and k not in ("net.shed", "net.error_frames")]
                if w["name"] == "socket-storm":
                    self.assertTrue(all(v != 0 for v in net))
                else:
                    self.assertTrue(all(v == 0 for v in net))

    def test_unknown_workload_fails_without_result(self):
        proc = run(RUN, "--workload", "no-such", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_benchmark_alone_fails_without_result(self):
        scratch = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("perfbench/run.py", "--workload", "socket-storm", "--seed",
                       "1", "--seconds", "1", "--trace", "0", cwd=scratch)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
