#!/usr/bin/env python3
"""Smoke tests for the serving benchmark; they take seconds.

    python3 perfbench/smoke_test.py

Builds through run.py, then, for every workload the binary knows (BENCHMARK.json's plus the
supplementary online_batched_slo) at its TinyTestConfig() shape (--tiny), runs both modes and
checks that the correctness gate passes (it includes the observer-equality and
runner-equivalence checks) and that exactly the metrics BENCHMARK.json names come out, with
its units. Also checks the binary's metric table (names, units, directions) against
BENCHMARK.json, and that a directory holding only BENCHMARK.json and the benchmark fails
without printing a result.
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


def run(args, cwd=ROOT, run_py=RUN):
    return subprocess.run([sys.executable, run_py, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        listing = run(["--list-metrics"])
        if listing.returncode != 0:
            raise RuntimeError("build failed:\n" + listing.stderr[-4000:])
        cls.table = {}
        for line in listing.stdout.splitlines():
            kind, name, unit, better = line.split()
            cls.table.setdefault(kind, []).append(
                {"name": name, "unit": unit, "better": better})
        # The usage message of a bad invocation lists the workloads the binary knows.
        usage = run(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
        cls.workloads = [line.split()[1:] for line in usage.stderr.splitlines()
                         if line.startswith("workloads:")][0]

    def test_benchmark_workloads_are_known(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertTrue(set(names) <= set(self.workloads), (names, self.workloads))

    def test_metric_table_matches_benchmark_json(self):
        for kind in ("end_to_end", "per_layer"):
            declared = [{k: m[k] for k in ("name", "unit", "better")} for m in self.spec[kind]]
            self.assertEqual(declared, self.table[kind], kind)

    def test_every_workload_passes_both_modes_with_every_metric(self):
        for workload in self.workloads:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = run(["--workload", workload, "--seed", "7", "--seconds", "0",
                               "--trace", str(trace), "--tiny"])
                    self.assertEqual(out.returncode, 0, out.stdout[-4000:])
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_same_seed_same_virtual_metrics(self):
        outputs = []
        for _ in range(2):
            out = run(["--workload", "online_batched_slo", "--seed", "3", "--seconds", "0",
                       "--trace", "0", "--tiny"])
            metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
            outputs.append({k: v for k, v in metrics.items()
                            if v["unit"] in ("sim_ms", "sim_s", "ratio", "req/sim_s")})
        self.assertEqual(outputs[0], outputs[1])

    def test_unknown_workload_fails_without_result(self):
        out = run(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1",
                   "--trace", "0"])
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)

    def test_benchmark_alone_fails_without_result(self):
        scratch = os.path.join(ROOT, ".bench_build", "smoke_alone")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = run(["--workload", "offline_paper5", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=scratch,
                      run_py=os.path.join(scratch, "perfbench", "run.py"))
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
