#!/usr/bin/env python3
"""Self-tests of scripts/ab_perf.py's statistics, seed lists and pair
order (no build, no run).

    python3 scripts/test_ab_perf.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_perf  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_matches_inclusive_quartiles(self):
        sample = [0.31, 5.2, 1.7, 2.2, 9.9, 0.05, 3.3, 4.1, 7.5, 6.0]
        quartiles = statistics.quantiles(sample, n=4, method="inclusive")
        for p, expected in zip((25, 50, 75), quartiles):
            self.assertAlmostEqual(ab_perf.percentile(sample, p), expected)
        self.assertEqual(ab_perf.median([3, 1, 2]), 2)
        self.assertEqual(ab_perf.median([4, 1, 3, 2]), 2.5)

    def test_rejects_an_empty_sample(self):
        with self.assertRaises(ValueError):
            ab_perf.percentile([], 50)


class CompareTest(unittest.TestCase):
    def test_a_clear_gain_on_a_higher_is_better_metric(self):
        parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
        change = [p * 1.2 for p in parent]
        s = ab_perf.compare(parent, change, "higher")
        self.assertEqual(s["ahead"], 10)
        self.assertEqual(s["pairs"], 10)
        self.assertAlmostEqual(s["ratio"], 1.2)
        self.assertAlmostEqual(s["pair_ratio_median"], 1.2)
        self.assertAlmostEqual(s["pair_ratio_min"], 1.2)
        self.assertAlmostEqual(s["pair_ratio_max"], 1.2)
        self.assertAlmostEqual(s["gap"], 20.0)
        # Quartiles of the parent by linear interpolation: 99.25 and 101.
        self.assertAlmostEqual(s["parent_iqr"], 1.75)
        self.assertTrue(s["claimable"])

    def test_direction_flips_ahead_and_gap(self):
        parent = [10.0, 12.0, 11.0, 13.0]
        change = [9.0, 11.0, 12.0, 10.0]
        lower = ab_perf.compare(parent, change, "lower")
        higher = ab_perf.compare(parent, change, "higher")
        self.assertEqual(lower["ahead"], 3)
        self.assertEqual(higher["ahead"], 1)
        self.assertAlmostEqual(lower["gap"], 1.0)  # medians 11.5 -> 10.5
        self.assertAlmostEqual(higher["gap"], -1.0)
        self.assertFalse(higher["claimable"])

    def test_ties_are_not_ahead(self):
        s = ab_perf.compare([5, 5, 5], [5, 5, 6], "higher")
        self.assertEqual(s["ahead"], 1)

    def test_claim_needs_nine_of_ten_pairs_and_a_gap_past_the_iqr(self):
        parent = [100.0] * 5 + [110.0] * 5
        # Ahead in 8 of 10 pairs only: not claimable however large the gap.
        change = [130.0] * 8 + [90.0, 90.0]
        self.assertEqual(ab_perf.compare(parent, change, "higher")["ahead"],
                         8)
        self.assertFalse(
            ab_perf.compare(parent, change, "higher")["claimable"])
        # Ahead in all 10, but the median gap (5.5) is inside the parent's
        # IQR (10): not claimable either.
        narrow = [p + 1.0 for p in parent]
        s = ab_perf.compare(parent, narrow, "higher")
        self.assertEqual(s["ahead"], 10)
        self.assertAlmostEqual(s["parent_iqr"], 10.0)
        self.assertFalse(s["claimable"])

    def test_pair_ratio_range_and_median(self):
        s = ab_perf.compare([1.0, 2.0, 4.0], [2.0, 2.0, 2.0], "higher")
        self.assertAlmostEqual(s["pair_ratio_min"], 0.5)
        self.assertAlmostEqual(s["pair_ratio_max"], 2.0)
        self.assertAlmostEqual(s["pair_ratio_median"], 1.0)
        self.assertAlmostEqual(s["ratio"], 1.0)

    def test_rejects_unpaired_or_unknown_direction(self):
        with self.assertRaises(ValueError):
            ab_perf.compare([1.0], [1.0, 2.0], "higher")
        with self.assertRaises(ValueError):
            ab_perf.compare([], [], "higher")
        with self.assertRaises(ValueError):
            ab_perf.compare([1.0], [1.0], "faster")


class SeedsAndOrderTest(unittest.TestCase):
    def test_parses_ranges_and_lists(self):
        self.assertEqual(ab_perf.parse_seeds("61-65"), [61, 62, 63, 64, 65])
        self.assertEqual(ab_perf.parse_seeds("1,3,5"), [1, 3, 5])
        self.assertEqual(ab_perf.parse_seeds("1-3,7"), [1, 2, 3, 7])
        for bad in ("", "5-3", "a"):
            with self.assertRaises(ValueError):
                ab_perf.parse_seeds(bad)

    def test_first_side_alternates(self):
        self.assertEqual(ab_perf.order(0), ("parent", "change"))
        self.assertEqual(ab_perf.order(1), ("change", "parent"))
        firsts = [ab_perf.order(i)[0] for i in range(10)]
        self.assertEqual(firsts.count("parent"), 5)


if __name__ == "__main__":
    unittest.main()
