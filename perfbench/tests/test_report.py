"""Tests of the steadiness-report statistics in perfbench/run.py.

Run with `python3 perfbench/run.py --selftest` (or unittest discover).
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        s = run.spread(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(s["q1"], q1)
        self.assertAlmostEqual(s["q3"], q3)
        self.assertAlmostEqual(s["median"], statistics.median(values))
        self.assertAlmostEqual(s["iqr_share"], (q3 - q1) / s["median"])

    def test_range_share(self):
        s = run.spread([90.0, 100.0, 110.0])
        self.assertAlmostEqual(s["median"], 100.0)
        self.assertAlmostEqual(s["range_share"], 0.2)

    def test_identical_values_have_no_spread(self):
        s = run.spread([5.0] * 4)
        self.assertEqual(s["iqr_share"], 0.0)
        self.assertEqual(s["range_share"], 0.0)

    def test_single_value(self):
        s = run.spread([7.0])
        self.assertEqual(s["q1"], 7.0)
        self.assertEqual(s["q3"], 7.0)


class BenchmarkSpecTest(unittest.TestCase):
    def test_every_end_to_end_metric_has_a_bound(self):
        spec, bounds = run.load_bounds()
        for metric in spec["end_to_end"]:
            self.assertIsNotNone(bounds[metric["name"]])
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
