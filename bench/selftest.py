"""The benchmark's own tests. Run them with

    python3 bench/selftest.py

They are kept out of the package's pytest suite on purpose (the file name
does not match test_*.py), because they start workload processes and take
about two minutes. They check that:

- a smoke-sized run of every workload prints every metric named in
  BENCHMARK.json, with its unit, for --trace 0 and --trace 1;
- the op outcomes are the same with tracing off and on;
- the same seed generates identical inputs, and another seed other ones;
- the host-speed scale is 1 at the nominal reference time and scales
  every op of a round by its round's reference median;
- a tree without the package's sources makes run.py fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seconds: float = 1.0, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload]
    cmd += ["--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class SmokeRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for wl in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    proc = run_bench(wl["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout + proc.stderr)
                    self.assertGreaterEqual(result["attempted"], 100)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("certify", 0, cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


class TracingKeepsOutcomes(unittest.TestCase):
    def test_same_outcomes_traced_and_untraced(self):
        import numpy as np

        import ricciforge
        import ricciforge.cli  # noqa: F401
        import worker
        from tracer import Tracer

        for wl in workloads.WORKLOADS.values():
            with self.subTest(workload=wl.name), tempfile.TemporaryDirectory() as tmp:
                ctx = worker.Context(ricciforge, np, 3, tmp)
                wl.setup(ctx)
                plain = worker.run_loop(wl, ctx, 3, 0, rounds=2)
                tracer = Tracer(ricciforge)
                tracer.install()
                try:
                    traced = worker.run_loop(wl, ctx, 3, 0, tracer=tracer, rounds=2)
                finally:
                    tracer.uninstall()
                self.assertEqual([(r.cls, r.ok) for r in plain], [(r.cls, r.ok) for r in traced])
                self.assertEqual(sum(not r.ok for r in plain), 2 * len(wl.known_defects))
                counts, _ = tracer.totals()
                self.assertGreater(sum(counts.values()), 0)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for wl in workloads.WORKLOADS.values():
            with self.subTest(workload=wl.name):
                first = [wl.round_ops(5, k) for k in range(4)]
                again = [wl.round_ops(5, k) for k in range(4)]
                other = [wl.round_ops(6, k) for k in range(4)]
                self.assertEqual(json.dumps(first), json.dumps(again))
                self.assertNotEqual(json.dumps(first), json.dumps(other))

    def test_shares_are_fixed(self):
        for wl in workloads.WORKLOADS.values():
            for seed in (1, 2):
                with self.subTest(workload=wl.name, seed=seed):
                    classes = sorted(op.cls for op in wl.round_ops(seed, 0))
                    want = sorted(cls for cls, count in wl.shares for _ in range(count))
                    self.assertEqual(classes, want)


class HostSpeedScale(unittest.TestCase):
    def test_factor(self):
        import hostspeed

        self.assertEqual(hostspeed.factor([hostspeed.NOMINAL_NS] * 3), 1.0)
        self.assertEqual(hostspeed.factor([1, 2 * hostspeed.NOMINAL_NS, 10**12]), 0.5)
        self.assertGreater(hostspeed.reference(), 0)

    def test_ops_scaled_by_their_round(self):
        import numpy as np

        import ricciforge
        import worker

        wl = workloads.WORKLOADS["certify"]
        with tempfile.TemporaryDirectory() as tmp:
            ctx = worker.Context(ricciforge, np, 3, tmp)
            wl.setup(ctx)
            records = worker.run_loop(wl, ctx, 3, 0, rounds=2)
        n = wl.round_size()
        for batch in (records[:n], records[n:]):
            scales = {r.scaled_ns / r.ns for r in batch}
            self.assertAlmostEqual(min(scales), max(scales), delta=1e-9 * max(scales))


if __name__ == "__main__":
    unittest.main()
