"""Self-tests of the benchmark, on tiny inputs (about half a minute).

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name, trace, reference=None, seed=workloads.DEFAULT_SEED):
    """One run on tiny inputs with the minimum number of ops."""
    return run.run(name, seed, 0, trace, "tiny", reference)


class MetricNames(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual(sorted(NAMES), sorted(workloads.WORKLOADS))

    def test_every_workload_emits_the_spec_metrics(self):
        for name in NAMES:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    out = tiny(name, trace)
                    result = out["result"]
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace:
                        acct = out["report"]["accounting_s"]
                        self.assertAlmostEqual(
                            acct["self_sum_minus_overhead"], acct["untraced_wall"], places=6)

    def test_command_prints_result_last(self):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
             "--seconds", "0", "--trace", "0", "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        for metric in SPEC["end_to_end"]:
            self.assertTrue(any(line.startswith(metric["name"] + " ") for line in lines))


class Checks(unittest.TestCase):
    def setUp(self):
        self.reference = copy.deepcopy(workloads.load_reference())

    def assert_fails(self, name):
        with contextlib.redirect_stderr(io.StringIO()) as log:
            result = tiny(name, False, self.reference)["result"]
        self.assertIn("CheckFailed", log.getvalue())
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], tiny(name, False)["result"]["attempted"])

    def test_tampered_exact_value(self):
        self.reference["exact"]["40"]["rvar"] = "1/3"
        self.assert_fails("exact")

    def test_tampered_experiment_reference(self):
        size = str(workloads.SIZES["tiny"]["experiment_n"])
        self.reference["exact"][size]["beta"] = "1000"
        self.assert_fails("experiment")

    def test_tampered_golden_digests(self):
        for name in ("experiment", "normalize"):
            with self.subTest(workload=name):
                self.reference["golden"][f"{name}.tiny"] = "0" * 64
                self.assert_fails(name)

    def test_golden_digest_applies_only_to_the_default_seed(self):
        self.reference["golden"]["normalize.tiny"] = "0" * 64
        result = tiny("normalize", False, self.reference, seed=1)["result"]
        self.assertTrue(result["correct"])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_package(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [*SPEC["command"], "--workload", NAMES[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
