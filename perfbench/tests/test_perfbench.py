# Copyright 2026 the pdblb authors. MIT license.
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark if needed and runs the cheapest workload (memory-bound)
for a few seconds in each mode.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402

WORKLOAD = "memory-bound"


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_benchmark(trace):
    """Runs run.py as a benchmark harness would; returns its last line."""
    out = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
         WORKLOAD, "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
         "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = benchmark_json()

    def test_printed_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_benchmark(trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(printed, declared)

    def run_probes(self, sabotage=None):
        out = os.path.join(ROOT, ".bench_out", "probes.test.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        cmd = [self.binary, "probes", "--workload", WORKLOAD, "--out", out]
        if sabotage:
            cmd += ["--sabotage", sabotage]
        subprocess.run(cmd, check=True, timeout=120)
        with open(out) as f:
            return {p["metric"]: p["path_ok"] for p in json.load(f)["probes"]}

    def test_probe_path_checks_fire(self):
        clean = self.run_probes()
        self.assertTrue(all(clean.values()), clean)
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        self.assertLessEqual(set(clean), per_layer)
        for metric in clean:
            with self.subTest(probe=metric):
                paths = self.run_probes(sabotage=metric)
                self.assertFalse(paths[metric])
                others = {m: ok for m, ok in paths.items() if m != metric}
                self.assertTrue(all(others.values()), others)

    def perturbed_digest(self, csv_path, column):
        """Digest of the CSV with one cell of `column` changed in its last
        printed digit."""
        with open(csv_path) as f:
            rows = f.read().splitlines(keepends=True)
        index = rows[0].rstrip("\n").split(",").index(column)
        cells = rows[1].split(",")
        cell = cells[index].rstrip("\n")
        cells[index] = (cell[:-1] + ("1" if cell[-1] != "1" else "2") +
                        cells[index][len(cell):])
        rows[1] = ",".join(cells)
        perturbed = os.path.join(ROOT, ".bench_out", "perturbed.csv")
        with open(perturbed, "w") as f:
            f.write("".join(rows))
        return run.digest(perturbed)

    def test_perturbed_csv_fails_digest_check(self):
        reference = run.load_reference()
        raw = run.run_binary(self.binary, "measure", WORKLOAD,
                             run.DEFAULT_SEED, 0)
        self.assertTrue(run.check_digest(reference, WORKLOAD,
                                         run.DEFAULT_SEED, raw["csv_digest"]))
        csv_path = os.path.join(ROOT, ".bench_out", "%s.measure.%d.csv" %
                                (WORKLOAD, run.DEFAULT_SEED))
        # A simulated result changes: the digest check fails.
        perturbed = self.perturbed_digest(csv_path, "join_rt_ms")
        self.assertFalse(run.check_digest(reference, WORKLOAD,
                                          run.DEFAULT_SEED, perturbed))
        raw["csv_digest"] = perturbed
        correct, _, problems, _ = run.evaluate(raw, reference)
        self.assertFalse(correct)
        self.assertIn("results digest differs from the reference", problems)
        # A kernel work count changes: not a model answer, so it passes.
        for column in run.DIGEST_EXCLUDED:
            with self.subTest(column=column):
                self.assertTrue(run.check_digest(
                    reference, WORKLOAD, run.DEFAULT_SEED,
                    self.perturbed_digest(csv_path, column)))

if __name__ == "__main__":
    unittest.main()
