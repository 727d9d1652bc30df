#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny workload sizes (--smoke).

    python3 perfbench/test_perfbench.py

Runs every workload untraced and traced, checks the result line against
BENCHMARK.json, repeats the untraced runs on a held-out seed range, and
checks that the benchmark refuses to run without the project sources.
Builds the driver on first use, like run.py.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Seeds start at 1 + offset + seed * 1e6; the benchmark was built and tuned
# with offset 0 and seeds below 100, so this range was never used.
HELD_OUT_OFFSET = 7_000_000_000


def run_bench(workload, trace, seed=1, offset=0, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--seed-offset", str(offset), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, workload, trace):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        # chaos-ii retries the rare seed whose salvaged trace has no
        # intervals left, so no operation of either workload fails.
        self.assertEqual(result["failed"], 0)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in expected])
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        self.assertIn('"provenance"', proc.stdout)
        return result

    def test_every_workload_untraced_and_traced(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    result = self.check_result(proc, workload, trace)
                    if trace:
                        self.assertIn("check ok     fidelity", proc.stdout)
                        self.assertIn("check ok     attribution", proc.stdout)
                        if workload == "chaos-ii":
                            self.assertIn("check ok     journal", proc.stdout)
                    else:
                        for name, metric in result["metrics"].items():
                            if name != "detection_rate":
                                self.assertGreater(metric["value"], 0, name)

    def test_held_out_seed_range(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 0, seed=3, offset=HELD_OUT_OFFSET)
                self.check_result(proc, workload, 0)
                self.assertIn(f'"seed_offset": {HELD_OUT_OFFSET}', proc.stdout)

    def test_refuses_without_sources(self):
        bare = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        bare = bare.resolve() / "test-bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
