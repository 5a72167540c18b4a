"""Self-test of the benchmark: runner, digest gate, failure counting and trace
parsing, on the small kp (1,1) ge3 E 2..4 complex.  Runs in seconds.

    python3 perfbench/selftest.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

KP11 = ["cohomology", "--kind", "kp", "-g", "1", "-n", "1", "--sector", "ge3", "-E", "2..4", "--emit", "json"]
# SHA-256 of the CLI's stdout for KP11, frozen when the benchmark was added.
KP11_DIGEST = "11acdb93c772dd7db880478ba6a664d8374950fc9c56b6cc9bd24ce65596ca3d"

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


class TracerAccounting(unittest.TestCase):
    def nested_report(self):
        """delta [0, 10] calls to_oriented_class [2, 5] and, recursively,
        delta [6, 8]."""
        now = [0.0]
        tr = Tracer(clock=lambda: now[0])
        for t, step in (
            (0, lambda: tr.enter("diff", "delta")),
            (2, lambda: tr.enter("canonical", "to_oriented_class")),
            (5, tr.exit),
            (6, lambda: tr.enter("diff", "delta")),
            (8, tr.exit),
            (10, tr.exit),
        ):
            now[0] = float(t)
            step()
        return tr.report()

    def test_self_time_subtracts_children_and_busy_counts_recursion_once(self):
        rep = self.nested_report()
        self.assertEqual(rep["self_s"], {"delta": 7.0, "to_oriented_class": 3.0})
        self.assertEqual(rep["busy_s"], {"delta": 10.0, "to_oriented_class": 3.0})
        self.assertEqual(rep["layer_busy_s"], {"diff": 10.0, "canonical": 3.0})
        self.assertEqual(rep["calls"], {"delta": 2, "to_oriented_class": 1})
        self.assertEqual(rep["entries"], {"diff": 1, "canonical": 1})

    def test_layer_metrics_parse_the_report(self):
        m = run.layer_metrics(self.nested_report(), 123, 0.5)
        self.assertEqual(units(m), PER_LAYER)
        self.assertEqual(m["diff.busy_s"]["value"], 10.0)
        self.assertEqual(m["diff.self_s"]["value"], 7.0)
        self.assertEqual(m["canonical.canon_s"]["value"], 3.0)
        self.assertEqual(m["canonical.canon_calls"]["value"], 1)
        self.assertEqual(m["diff.delta_calls"]["value"], 2)
        self.assertEqual(m["cache.bytes_written"]["value"], 123)
        self.assertEqual(m["trace.overhead_s"]["value"], 0.5)


class Runner(unittest.TestCase):
    def test_correct_runs_pass_the_gate_at_any_seed_and_leave_nothing(self):
        stray = os.path.join(run.WORK, "env-cache")
        os.environ["RIBBONCOH_CACHE_DIR"] = stray
        try:
            for seed in (1, 7):
                _, result = run.run(KP11, KP11_DIGEST, seed, 0, False)
                self.assertTrue(result["correct"])
                self.assertEqual((result["attempted"], result["failed"]), (1, 0))
                self.assertEqual(units(result["metrics"]), END_TO_END)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
        finally:
            del os.environ["RIBBONCOH_CACHE_DIR"]
        self.assertFalse(os.path.exists(stray))
        self.assertEqual(os.listdir(run.WORK), [])

    def test_wrong_payload_is_a_failure(self):
        _, result = run.run(KP11, "0" * 64, 1, 0, False)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))

    def test_nonzero_exit_is_a_failure(self):
        bad = KP11[:-3] + ["4..2", "--emit", "json"]
        detail, result = run.run(bad, KP11_DIGEST, 1, 0, False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(detail["invocations"][0]["exit_code"], 2)

    def test_traced_run_reports_every_layer_metric(self):
        _, result = run.run(KP11, KP11_DIGEST, 1, 0, True)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 2)
        m = result["metrics"]
        self.assertEqual(units(m), PER_LAYER)
        for name in (
            "enumeration.candidates", "enumeration.kept", "canonical.canon_calls",
            "diff.delta_calls", "linalg.exact_rank_calls", "complexes.certified_degrees",
            "cache.misses", "cache.bytes_written", "complexes.build_s", "cli.self_s",
        ):
            self.assertGreater(m[name]["value"], 0, name)

    def test_refuses_a_checkout_without_source(self):
        os.makedirs(run.WORK, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "mw-g0",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
