"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

The integration tests build the benchmark (see run.py) and run short
fixed-unit workloads, so the first run takes as long as the build.
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import spec  # noqa: E402


def run(*args):
    """Runs the benchmark; returns (exit code, provenance, result)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=HERE.parent)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    prov = next(d["provenance"] for d in lines if "provenance" in d)
    return proc.returncode, prov, lines[-1]


class TailPercentile(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        samples = list(range(1, 101))
        self.assertEqual(metrics.tail_percentile(samples, 0.90), (90, 100))
        self.assertIsNone(metrics.tail_percentile(samples, 0.91))
        self.assertIsNone(metrics.tail_percentile(samples, 0.99))
        self.assertIsNone(metrics.tail_percentile([], 0.5))

    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(metrics.tail_percentile(list(range(999)), 0.99))
        value, n = metrics.tail_percentile(list(range(1000)), 0.99)
        self.assertEqual((value, n), (989, 1000))

    def test_groups_whole_units_until_ten_lie_beyond(self):
        # Units of 40 samples: a p90 group needs 100, so three units per
        # group; the fourth unit joins the last group.
        units = [list(range(k, k + 40)) for k in (0, 100, 200, 300)]
        flat = [x for u in units for x in u]
        self.assertEqual(metrics.grouped_percentile(flat, [40] * 4, 0.90),
                         (323, 160))
        self.assertIsNone(metrics.grouped_percentile(flat[:80], [40] * 2,
                                                     0.90))
        got, n = metrics.grouped_percentile(flat, [40] * 4, 0.50)
        self.assertEqual((got, n), (statistics.median([19, 119, 219, 319]),
                                    160))

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(metrics.tail_percentile(samples, 0.5), (3.0, 50))


class FailureAccounting(unittest.TestCase):
    def test_every_kind_of_failure_counts(self):
        checks = {"attempted": 20, "exceptions": 1, "refused": 2,
                  "mismatches": 3, "probe_failed": 0}
        self.assertEqual(metrics.failed_count(checks), 6)
        self.assertAlmostEqual(metrics.failure_fraction(checks), 0.3)

    def test_corrupted_answer_is_failed(self):
        code, _, result = run("--workload", "batch_small", "--seed", "5",
                              "--units", "1", "--corrupt-answer", "3")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        code, _, result = run("--workload", "batch_small", "--seed", "5",
                              "--units", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_is_generated_from_spec(self):
        on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, spec.benchmark_json())

    def test_runs_print_exactly_the_declared_metrics(self):
        # 5 batches give the 1000 latency samples the p99 tail needs.
        _, _, result = run("--workload", "batch_small", "--units", "5",
                           "--trace", "0")
        self.assertEqual(sorted(result["metrics"]),
                         sorted(n for n, *_ in spec.END_TO_END))
        _, _, result = run("--workload", "batch_small", "--units", "10",
                           "--trace", "1")
        self.assertEqual(sorted(result["metrics"]),
                         sorted(n for n, *_ in spec.PER_LAYER))
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))


class Determinism(unittest.TestCase):
    def test_seed_fixes_inputs_and_simulated_makespan(self):
        def once(seed):
            _, prov, result = run("--workload", "batch_small", "--seed",
                                  str(seed), "--units", "1")
            return (prov["inputs_digest"],
                    result["metrics"]["sim_makespan_ms"]["value"])

        first, again, other = once(7), once(7), once(8)
        self.assertEqual(first, again)
        self.assertNotEqual(first[0], other[0])


if __name__ == "__main__":
    unittest.main()
