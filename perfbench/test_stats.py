"""Self-check of the benchmark's statistics and metric catalogue.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

run.py also runs it before every timing and refuses to report on failure.
"""

import json
import statistics
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


class NearestRank(unittest.TestCase):
    def test_textbook_example(self):
        # The classic nearest-rank example: 15, 20, 35, 40, 50.
        values = [15, 20, 35, 40, 50]
        self.assertEqual(stats.nearest_rank(values, 5), 15)
        self.assertEqual(stats.nearest_rank(values, 30), 20)
        self.assertEqual(stats.nearest_rank(values, 40), 20)
        self.assertEqual(stats.nearest_rank(values, 50), 35)
        self.assertEqual(stats.nearest_rank(values, 100), 50)

    def test_is_always_a_sample_and_ignores_order(self):
        values = [9.5, 1.25, 7.0, 3.5]
        for pct in (1, 25, 50, 75, 90, 100):
            self.assertIn(stats.nearest_rank(values, pct), values)
        self.assertEqual(stats.nearest_rank(values, 50), 3.5)
        self.assertEqual(stats.nearest_rank(list(reversed(values)), 50), 3.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1], 0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1], 101)


class TailRule(unittest.TestCase):
    def test_p90_needs_a_hundred_samples(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertTrue(stats.tail_supported(100, 90))
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertFalse(stats.tail_supported(99, 90))
        self.assertFalse(stats.tail_supported(12, 90))

    def test_p50_needs_twenty(self):
        self.assertTrue(stats.tail_supported(20, 50))
        self.assertFalse(stats.tail_supported(19, 50))


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 9.9, 10.1]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_samples_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([4.0] * 10), 0.0)

    def test_known_value(self):
        # Exclusive-method quartiles of 1..9 are 2.5 and 7.5; median 5.
        self.assertAlmostEqual(stats.quartile_spread(list(range(1, 10))), 1.0)


class RatioWithBase(unittest.TestCase):
    def test_carries_its_base(self):
        self.assertEqual(stats.ratio_with_base(3, 4), (0.75, 4))

    def test_zero_base(self):
        self.assertEqual(stats.ratio_with_base(0, 0), (0.0, 0))


class SelfTimes(unittest.TestCase):
    def test_span_minus_children(self):
        spans = [
            ["probe", 1, -1, 0, 100, 1],
            ["scc", 1, 0, 10, 30, 4],
            ["kappa", 1, 0, 40, 90, 1],
            ["scc", 2, -1, 200, 210, 2],
        ]
        out = stats.self_times(spans)
        self.assertEqual(out["probe"], (30, 1, 1))
        self.assertEqual(out["scc"], (30, 6, 2))
        self.assertEqual(out["kappa"], (50, 1, 1))

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [["a", 0, -1, 0, 100, 1], ["b", 0, 0, 0, 60, 1], ["c", 0, 1, 0, 50, 1]]
        out = stats.self_times(spans)
        self.assertEqual(out["a"][0], 40)
        self.assertEqual(out["b"][0], 10)
        self.assertEqual(out["c"][0], 50)


class Catalogue(unittest.TestCase):
    """BENCHMARK.json, targets.json and run.py must name the same metrics."""

    def setUp(self):
        bench = HERE.parent / "BENCHMARK.json"
        if not bench.is_file():
            self.skipTest("no BENCHMARK.json beside perfbench/")
        self.bench = json.loads(bench.read_text())
        self.targets = json.loads((HERE / "targets.json").read_text())

    def test_per_layer_metrics_have_targets(self):
        names = {m["name"] for m in self.bench["per_layer"]}
        self.assertEqual(names, set(self.targets["per_layer"]))
        workloads = {w["name"] for w in self.bench["workloads"]}
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for name, target in self.targets["per_layer"].items():
            # A metric that should move nothing must predict no change everywhere.
            if not target["moves"]:
                self.assertEqual(set(target["no_change"]), workloads, name)
            for moved_metric, workload in target["moves"]:
                self.assertIn(moved_metric, e2e, name)
                self.assertIn(workload, workloads, name)
            for workload in target["no_change"]:
                self.assertIn(workload, workloads, name)

    def test_every_ratio_names_its_base(self):
        for name, target in self.targets["per_layer"].items():
            if "ratio" in name or "share" in name:
                self.assertIn(target.get("base"), self.targets["per_layer"], name)

    def test_workloads_match_run_py(self):
        import run
        names = {w["name"] for w in self.bench["workloads"]}
        self.assertEqual(names, set(run.WORKLOADS))
        self.assertEqual(set(self.targets["workloads"]), set(run.WORKLOADS))

    def test_units_match_run_py(self):
        import run
        metrics = self.bench["end_to_end"] + self.bench["per_layer"]
        units = {m["name"]: m["unit"] for m in metrics}
        for name, (_, _, unit) in run.SPAN_METRICS.items():
            self.assertEqual(units[name], unit, name)


if __name__ == "__main__":
    unittest.main()
