#!/usr/bin/env python3
"""The benchmark's own tests: traced-run self-checks and the compare gate.

    python3 perfbench/test_perfbench.py

Runs every workload traced, twice on one seed with a short budget, and
asserts that
  * the outputs pass their checks;
  * the per-layer self times sum to at most traced wall x threads;
  * the work counts repeat exactly across the two runs;
and that compare refuses results from different hosts, and that the
benchmark fails without a result line when the repository sources are
missing.  Takes about two minutes on four cores.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = ROOT / ".bench_build" / "perfbench" / "test"
SEED = 7
COUNTS = ["proc.frames", "core.scan_calls", "core.vtable_entries",
          "atm.cac_misses", "net.bytes_per_request"]


def workloads():
    with open(ROOT / "BENCHMARK.json") as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def traced(workload, tag):
    out = OUT / f"{workload}-{tag}.json"
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "2", "--trace", "1", "--out", out],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return done, json.loads(out.read_text()) if out.exists() else None


class TracedRuns(unittest.TestCase):
    def test_self_times_and_counts(self):
        OUT.mkdir(parents=True, exist_ok=True)
        for workload in workloads():
            with self.subTest(workload=workload):
                first, a = traced(workload, "a")
                second, b = traced(workload, "b")
                self.assertEqual(first.returncode, 0, first.stdout[-2000:])
                self.assertEqual(second.returncode, 0, second.stdout[-2000:])
                result = json.loads(first.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"])
                for rec in (a, b):
                    layer = {k: v["value"] for k, v in rec["per_layer"].items()}
                    self.assertLessEqual(
                        layer["obs.span_self_s"],
                        layer["obs.traced_wall_s"] * layer["obs.threads"] * (1 + 1e-9))
                    self.assertGreater(layer["obs.span_self_s"], 0)
                for name in COUNTS:
                    va = a["per_layer"].get(name, {}).get("value")
                    vb = b["per_layer"].get(name, {}).get("value")
                    self.assertEqual(va, vb, name)


class Compare(unittest.TestCase):
    def record(self, path, cpu):
        rec = {"workload": "sim_markov", "host": {
            "cpu_model": cpu, "nproc": 4, "simd": "avx2", "compiler": "x",
            "build_type": "Release"},
            "end_to_end": {"wall_s": {"value": 1.0, "unit": "s"}}}
        path.write_text(json.dumps(rec))
        return str(path)

    def test_refuses_different_hosts(self):
        OUT.mkdir(parents=True, exist_ok=True)
        a = self.record(OUT / "host-a.json", "cpu A")
        b = self.record(OUT / "host-b.json", "cpu B")
        done = subprocess.run([sys.executable, RUN, "compare", "--base", a,
                               "--new", b], capture_output=True, text=True)
        self.assertEqual(done.returncode, 2, done.stderr)
        self.assertIn("different hosts", done.stderr)
        same = subprocess.run([sys.executable, RUN, "compare", "--base", a,
                               "--new", a], capture_output=True, text=True)
        self.assertEqual(same.returncode, 0, same.stdout + same.stderr)


class WithoutSources(unittest.TestCase):
    def test_fails_without_a_result(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim_markov",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
