#!/usr/bin/env python3
"""Self-tests of scripts/ab_perf.py's statistics, seed lists, pair order
and ppg-bench row handling (no build; one run of a stand-in binary).

    python3 scripts/test_ab_perf.py
"""

import os
import re
import stat
import statistics
import sys
import tempfile
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


class BenchRowTest(unittest.TestCase):
    ARTIFACT = {"scenarios": [
        {"name": "throughput_engines",
         "metrics": {"ips_logit_q8_multibatch_n100000000": 3.2e9,
                     "ips_logit_q8_multibatch_n100000000_chunk8192": 8e8},
         "metric_goals": {}},
        {"name": "p1_parallel_engines",
         "metrics": {"mb_rounds": 2277.0, "ips_solo_loop": 1e9},
         "metric_goals": {"mb_rounds": "max"}},
    ]}

    def test_parses_scenario_and_metric(self):
        self.assertEqual(
            ab_perf.parse_row("throughput_micro.sampler_ns_binomial_var159"),
            ("throughput_micro", "sampler_ns_binomial_var159"))
        for bad in ("ips_solo_loop", ".ips", "throughput_engines."):
            with self.assertRaises(ValueError):
                ab_perf.parse_row(bad)

    def test_direction_from_the_name_tokens(self):
        self.assertEqual(ab_perf.row_direction("ips_dense_agent_n10000"),
                         "higher")
        self.assertEqual(ab_perf.row_direction("batch_ips_t4"), "higher")
        self.assertEqual(ab_perf.row_direction("rate_rollout_game"), "higher")
        self.assertEqual(
            ab_perf.row_direction("sampler_ns_binomial_var159"), "lower")
        self.assertEqual(ab_perf.row_direction("recovery_ms"), "lower")
        # A unit counts only as a whole token, and a row with none has no
        # direction.
        with self.assertRaises(ValueError):
            ab_perf.row_direction("events_multibatch_hawk_dove")
        with self.assertRaises(ValueError):
            ab_perf.row_direction("spill_overhead_pct")

    def test_filter_selects_exactly_the_rows_scenarios(self):
        regex = ab_perf.bench_filter([("throughput_micro", "a_ns"),
                                      ("throughput_engines", "ips_x"),
                                      ("throughput_micro", "b_ns")])
        self.assertEqual(regex, "^(throughput_engines|throughput_micro)$")
        for name in ("throughput_engines", "throughput_micro"):
            self.assertTrue(re.search(regex, name))
        for name in ("throughput_batch", "throughput_engines_2", "x"):
            self.assertIsNone(re.search(regex, name))

    def test_reads_ungated_rows_and_refuses_the_rest(self):
        self.assertEqual(
            ab_perf.row_value(self.ARTIFACT, "throughput_engines",
                              "ips_logit_q8_multibatch_n100000000"), 3.2e9)
        self.assertEqual(ab_perf.row_value(self.ARTIFACT,
                                           "p1_parallel_engines",
                                           "ips_solo_loop"), 1e9)
        with self.assertRaises(ValueError):  # gated: seed-deterministic
            ab_perf.row_value(self.ARTIFACT, "p1_parallel_engines",
                              "mb_rounds")
        with self.assertRaises(ValueError):
            ab_perf.row_value(self.ARTIFACT, "throughput_engines", "nope")
        with self.assertRaises(ValueError):
            ab_perf.row_value(self.ARTIFACT, "throughput_micro", "ips_x")

    def test_runs_a_binary_with_the_filter_and_seed(self):
        # A stand-in for ppg-bench: it writes its arguments into the
        # artifact that --json names.
        script = (f"#!{sys.executable}\n"
                  "import json, sys\n"
                  "args = sys.argv[1:]\n"
                  "path = args[args.index('--json') + 1]\n"
                  "json.dump({'args': args, 'scenarios': []}, "
                  "open(path, 'w'))\n")
        with tempfile.TemporaryDirectory() as tmp:
            binary = os.path.join(tmp, "ppg-bench")
            with open(binary, "w") as f:
                f.write(script)
            os.chmod(binary, os.stat(binary).st_mode | stat.S_IXUSR)
            artifact = ab_perf.run_bench(binary, "^(throughput_engines)$", 7)
        args = artifact["args"]
        self.assertEqual(args[args.index("--filter") + 1],
                         "^(throughput_engines)$")
        self.assertEqual(args[args.index("--seed") + 1], "7")
        self.assertNotIn("--smoke", args)


if __name__ == "__main__":
    unittest.main()
