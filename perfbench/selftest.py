"""The benchmark's own tests, on reduced inputs (`run.py --quick`).

    python3 perfbench/selftest.py

They check that every metric of BENCHMARK.json is printed with its unit for
every workload, that a perturbed expected value trips the correctness gate,
and that the traced run's span tree is well formed.  About a minute on two
cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import check_tree, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, dict, str]:
    """Run run.py in quick mode; return (result, summary, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick", *extra],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]), proc.stdout


def load_spans(path: Path) -> list[tuple]:
    spans = []
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            spans.append((s["id"], s["parent"], s["name"], s["tid"],
                          s["start_ns"], s["end_ns"], s["attrs"]))
    return spans


class MetricsPrinted(unittest.TestCase):
    def check_metrics(self, result: dict, stdout: str, metrics: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(stdout, rf"{m['name']}\s+\S+\s+{m['unit']}")

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                result, summary, stdout = bench(workload, 0)
                self.check_metrics(result, stdout, SPEC["end_to_end"])
                for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "fail_frac"):
                    self.assertRegex(stdout, rf"{workload}\s+{name}\s")
                self.assertEqual(summary["fail_frac"], 0.0)
                self.assertEqual(summary["facts"]["threads"]["OPENBLAS_NUM_THREADS"], "1")
                self.assertIn("calibration", summary["facts"])
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)
            with self.subTest(workload=workload, trace=1):
                result, _, stdout = bench(workload, 1)
                self.check_metrics(result, stdout, SPEC["per_layer"])


class GateTrips(unittest.TestCase):
    def setUp(self):
        self.expected = HERE / "_runs" / f"perturbed-{uuid.uuid4().hex[:8]}"
        shutil.copytree(HERE / "expected", self.expected)

    def tearDown(self):
        shutil.rmtree(self.expected, ignore_errors=True)

    def perturb(self, workload: str, change) -> None:
        path = self.expected / f"{workload}.json"
        data = json.loads(path.read_text())
        change(data)
        path.write_text(json.dumps(data))

    def test_perturbed_map_cell_is_counted(self):
        def change(data):
            key = "3@5.9999999999999998e-02"
            data["cells"][key] *= 1.0 + 1e-3
        self.perturb("map", change)
        result, summary, _ = bench("map", 0, "--expected", str(self.expected))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(summary["fail_frac"], 1.0)
        self.assertTrue(any("3@5.9999999999999998e-02" in p for p in summary["problems"]))

    def test_perturbed_cli_payload_fails_one_command(self):
        def change(data):
            data["fit/fit.json"]["fit"]["params"]["omega_eff"] += 1e-4
        self.perturb("cli", change)
        result, summary, _ = bench("cli", 0, "--expected", str(self.expected))
        self.assertFalse(result["correct"])
        passes = result["attempted"] // 5
        self.assertEqual(result["failed"], passes)
        self.assertAlmostEqual(summary["fail_frac"], 0.2)


class SpanTree(unittest.TestCase):
    def test_traced_sweep_tree_is_well_formed(self):
        result, summary, _ = bench("scan", 1)
        self.assertTrue(result["correct"])
        spans = load_spans(Path(summary["run_dir"]) / "spans.jsonl")
        names = {s[2] for s in spans}
        self.assertTrue({"pass", "cli.main", "cli.cmd", "sweep.run", "evolve.propagate",
                         "evolve.diagonalize", "analysis.fit", "cli.write"} <= names)
        self.assertEqual(check_tree(spans), [])
        self.assertTrue(all(t >= 0 for t in self_times(spans).values()))
        # Cells run on pool threads; their spans hang under the sweep span.
        by_id = {s[0]: s for s in spans}
        for s in spans:
            if s[2] == "evolve.propagate":
                self.assertEqual(by_id[s[1]][2], "sweep.run")

    def test_check_tree_flags_a_child_outside_its_parent(self):
        spans = [(1, None, "pass", 0, 0, 100, None),
                 (2, 1, "cli.cmd", 0, 10, 120, None),
                 (3, 9, "cli.write", 0, 20, 30, None)]
        problems = check_tree(spans)
        self.assertTrue(any("outside its parent" in p for p in problems))
        self.assertTrue(any("unknown parent" in p for p in problems))


if __name__ == "__main__":
    unittest.main(verbosity=2)
