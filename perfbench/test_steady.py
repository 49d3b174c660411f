#!/usr/bin/env python3
"""Self-tests of steady.py and run.py's result parsing (standard library).

    python3 perfbench/test_steady.py
"""
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import steady  # noqa: E402

BENCH = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "records_per_s", "unit": "rec/s", "better": "higher",
     "bound": 0.1},
]}


def result(setup, rps):
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "setup_s": {"value": setup, "unit": "s"},
        "records_per_s": {"value": rps, "unit": "rec/s"}}}


def runs(pairs):
    return {"workload": "w", "seconds": 1,
            "results": [result(s, r) for s, r in pairs]}


class SummarizeTest(unittest.TestCase):
    def test_matches_statistics_quartiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        s = steady.summarize(values)
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["median"], 5.5)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(steady.summarize([2.0] * 5)["spread"], 0.0)


class WorseningTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(steady.worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(steady.worsening(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(steady.worsening(100, 90, "higher"), 0.10)


class CompareTest(unittest.TestCase):
    def test_steady_sets_pass(self):
        a = runs([(1.0, 100), (1.1, 101), (0.9, 99), (1.0, 100)])
        b = runs([(1.0, 99), (1.1, 100), (0.9, 98), (1.0, 99)])
        self.assertEqual(steady.compare(a, b, BENCH), [])

    def test_regression_beyond_bound_fails(self):
        a = runs([(1.0, 100), (1.0, 101), (1.0, 99), (1.0, 100)])
        b = runs([(1.0, 80), (1.0, 81), (1.0, 79), (1.0, 80)])
        problems = steady.compare(a, b, BENCH)
        self.assertEqual(len(problems), 1)
        self.assertIn("records_per_s: median worse", problems[0])

    def test_setup_spread_is_exempt_but_its_median_is_not(self):
        a = runs([(1.0, 100), (2.0, 100), (1.0, 100), (2.0, 100)])
        self.assertEqual(steady.compare(a, a, BENCH), [])
        b = runs([(2.0, 100), (3.0, 100), (2.0, 100), (3.0, 100)])
        self.assertIn("setup_s: median worse", steady.compare(a, b, BENCH)[0])

    def test_wide_spread_fails(self):
        a = runs([(1.0, 50), (1.0, 150), (1.0, 60), (1.0, 140)])
        self.assertTrue(any("spread" in p for p in
                            steady.compare(a, a, BENCH)))

    def test_missing_metric_fails(self):
        a = runs([(1.0, 100)] * 4)
        for r in a["results"]:
            del r["metrics"]["records_per_s"]
        self.assertEqual(steady.compare(a, a, BENCH),
                         ["records_per_s: missing"])


class ResultLineTest(unittest.TestCase):
    def test_last_json_line(self):
        text = 'env: {"seed": 1}\n{"correct": true}\n'
        self.assertEqual(steady.last_json_line(text), {"correct": True})
        with self.assertRaises(ValueError):
            steady.last_json_line("no result here\n")

    def test_is_result_needs_exactly_the_four_keys(self):
        good = ('{"correct": true, "attempted": 1, "failed": 0, '
                '"metrics": {}}')
        self.assertTrue(run.is_result(good))
        self.assertFalse(run.is_result('{"correct": true}'))
        self.assertFalse(run.is_result("env: {}"))


if __name__ == "__main__":
    unittest.main()
