#!/usr/bin/env python3
"""Tests of the deploy benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; builds like run.py does.

* Fixture guard: the converted fixture selects a narrow solver on all 22
  resnet20 conv/linear ops and attn_i16 on every ViT attention, and the
  saved checkpoint reproduces the converted outputs.
* Determinism: two runs with the same seed report identical exact counts
  and no failed operation; a second seed keeps the graph-structure counts
  but feeds different inputs.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

EXACT_END_TO_END = ("act_peak_kib", "export_kib")
EXACT_PER_LAYER = ("deploy.steps", "deploy.noop_steps", "deploy.int8_share")
STRUCTURE = ("deploy.steps", "deploy.noop_steps")


def measure(workload, seed, trace):
    """One short benchmark run: (result dict, input-pool fingerprint)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} failed:\n"
                             f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().split("\n")
    digest = next(l.split("pool_fnv1a=")[1] for l in lines if "pool_fnv1a=" in l)
    result = json.loads(lines[-1])
    return result, digest


def value(result, name):
    return result["metrics"][name]["value"]


class FixtureGuard(unittest.TestCase):
    def test_narrow_solvers_and_checkpoint_round_trip(self):
        build_dir = bench.build()
        self.assertIsNotNone(build_dir, "build failed")
        work = bench.ROOT / ".bench_work" / "fixture-test"
        proc = subprocess.run([str(build_dir / "perfbench_fixture_test"),
                               str(work)],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class Determinism(unittest.TestCase):
    def test_same_seed_same_counts(self):
        for workload in ("cnn-b1", "vit-b8", "export-roundtrip"):
            for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
                a, da = measure(workload, 1, trace)
                b, db = measure(workload, 1, trace)
                self.assertEqual(da, db)
                for r in (a, b):
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                for name in names:
                    self.assertEqual(value(a, name), value(b, name),
                                     f"{workload}: {name}")

    def test_second_seed_same_structure_new_inputs(self):
        for workload in ("cnn-b1", "vit-b8"):
            a, da = measure(workload, 1, 1)
            b, db = measure(workload, 2, 1)
            self.assertNotEqual(da, db, f"{workload}: same inputs for seeds 1, 2")
            self.assertEqual(b["failed"], 0)
            for name in STRUCTURE:
                self.assertEqual(value(a, name), value(b, name),
                                 f"{workload}: {name}")


if __name__ == "__main__":
    unittest.main()
