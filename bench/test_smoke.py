"""Smoke test of the benchmark harness: one short census-small run untraced
(seed 0, so the report digests are checked) and one traced (seed 1, so
the relabeled inputs go through read_group).  Each must exit 0, report
correct outputs and print every metric BENCHMARK.json names, with its
unit.  Takes a few seconds:

    python3 bench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(seed: int, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "census-small",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stdout}\n"
                             f"{proc.stderr}")
    return lines[:-1], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def check_result(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_prints_end_to_end_metrics(self):
        lines, result = run_bench(seed=0, trace=0)
        self.check_result(result, self.spec["end_to_end"])
        for m in self.spec["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)
        printed = {ln.split()[0]: ln.split()[2] for ln in lines
                   if len(ln.split()) > 2}
        for name, unit in [(m["name"], m["unit"])
                           for m in self.spec["end_to_end"]] \
                + [("wall_s", "s"), ("cpu_s", "s"), ("ref_s", "s"),
                   ("structures_per_s", "1/s"), ("fail_rate", "ratio")]:
            self.assertEqual(printed.get(name), unit, name)
        self.assertTrue(any(ln.startswith("env {") for ln in lines))

    def test_traced_prints_per_layer_metrics(self):
        lines, result = run_bench(seed=1, trace=1)
        self.check_result(result, self.spec["per_layer"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        modules = sum(metrics[f"{m}.self_s"] for m in (
            "groups", "perms", "braces", "analysis", "catalog", "other"))
        # serialize and cli self times are in the printed table only
        table = {ln.split()[0]: float(ln.split()[1]) for ln in lines
                 if ln.startswith("  ") and len(ln.split()) == 2}
        modules += table["serialize"] + table["cli"] \
            + metrics["trace.harness_s"]
        self.assertAlmostEqual(modules, metrics["trace.wall_s"], places=3)
        self.assertAlmostEqual(table["sum"], metrics["trace.wall_s"],
                               places=3)
        self.assertGreater(metrics["trace.overhead_ratio"], 0)
        span_line = [ln for ln in lines if ln.startswith("span file: ")]
        self.assertEqual(len(span_line), 1)
        spans = (ROOT / span_line[0].split(": ", 1)[1]).read_text().splitlines()
        self.assertEqual(len(spans), metrics["trace.spans"])
        first = json.loads(spans[0])
        self.assertEqual(set(first) - {"attrs"},
                         {"trace", "id", "parent", "name", "start", "end"})


if __name__ == "__main__":
    unittest.main()
