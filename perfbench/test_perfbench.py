#!/usr/bin/env python3
"""Self-tests of the benchmark's own code: the percentile reduction, the
metric-name rules, and the rules BENCHMARK.json must follow.

    python3 perfbench/test_perfbench.py
"""

import copy
import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(run.percentile([1, 2, 3, 4], 0), 1)
        self.assertEqual(run.percentile([1, 2, 3, 4], 100), 4)
        self.assertAlmostEqual(run.percentile(list(range(101)), 99), 99)
        self.assertAlmostEqual(run.percentile([10, 20], 25), 12.5)
        self.assertEqual(run.percentile([7], 99), 7)

    def test_agrees_with_statistics_inclusive_quartiles(self):
        sample = [0.31, 5.2, 1.7, 2.2, 9.9, 0.05, 3.3, 4.1, 7.5]
        quartiles = statistics.quantiles(sample, n=4, method="inclusive")
        for p, expected in zip((25, 50, 75), quartiles):
            self.assertAlmostEqual(run.percentile(sample, p), expected)

    def test_rejects_empty_sample_and_bad_rank(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)
        with self.assertRaises(ValueError):
            run.percentile([1.0], 101)

    def test_backed_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.backed_percentile(19))
        self.assertEqual(run.backed_percentile(20), 50)
        self.assertEqual(run.backed_percentile(100), 90)
        self.assertEqual(run.backed_percentile(999), 90)
        self.assertEqual(run.backed_percentile(1000), 99)
        self.assertEqual(run.backed_percentile(10_000), 99.9)
        self.assertEqual(run.backed_percentile(10 ** 6), 99.99)


class MetricNameTest(unittest.TestCase):
    def test_name_rule(self):
        for good in ("setup_s", "pp.engine.run_busy_s", "9lives", "a-b.c_d"):
            self.assertTrue(run.NAME_RE.match(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
            self.assertFalse(run.NAME_RE.match(bad), bad)

    def test_unit_rule(self):
        for good in ("ms", "s", "1/s", "count", "%", "MB", "ratio"):
            self.assertTrue(run.UNIT_RE.match(good), good)
        for bad in ("", "per second", "u" * 17, "ms;"):
            self.assertFalse(run.UNIT_RE.match(bad), bad)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.doc = load_benchmark()

    def test_repository_file_is_valid(self):
        self.assertEqual(run.validate_benchmark(self.doc), [])

    def test_rule_violations_are_reported(self):
        cases = []
        doc = copy.deepcopy(self.doc)
        doc["end_to_end"][1]["bound"] = 0.3
        cases.append(doc)
        doc = copy.deepcopy(self.doc)
        doc["end_to_end"] = [m for m in doc["end_to_end"]
                             if m["name"] != "setup_s"]
        cases.append(doc)
        doc = copy.deepcopy(self.doc)
        doc["per_layer"].append(dict(doc["per_layer"][0]))
        cases.append(doc)
        doc = copy.deepcopy(self.doc)
        doc["paths"] = ["../elsewhere"]
        cases.append(doc)
        doc = copy.deepcopy(self.doc)
        doc["workloads"] = doc["workloads"][:1]
        cases.append(doc)
        doc = copy.deepcopy(self.doc)
        doc["notes"] = "extra key"
        cases.append(doc)
        doc = copy.deepcopy(self.doc)
        doc["per_layer"][0]["name"] = "bad name"
        cases.append(doc)
        for case in cases:
            self.assertNotEqual(run.validate_benchmark(case), [])

    def test_every_layer_metric_maps_to_an_end_to_end_metric(self):
        layers = {m["name"] for m in self.doc["per_layer"]}
        self.assertEqual(layers, set(run.LAYER_MAP))
        e2e = {m["name"] for m in self.doc["end_to_end"]}
        workloads = {w["name"] for w in self.doc["workloads"]}
        for name, (target, on) in run.LAYER_MAP.items():
            self.assertTrue(set(on) <= workloads, name)
            if target in e2e:
                self.assertTrue(on, name)
            else:
                self.assertTrue(target == run.SERVE or "failed" in target or
                                "tracing overhead" in target, name)

    def test_every_end_to_end_metric_reduces_from_a_raw_document(self):
        raw = {"values": {"interactions": 1e9, "run_s": 10.0,
                          "peak_rss_mb": 5.0},
               "samples": {"setup_s": [0.1, 0.2, 0.3]}}
        for metric in self.doc["end_to_end"]:
            value = run.e2e_value(metric["name"], raw)
            self.assertGreater(value, 0, metric["name"])
        self.assertEqual(run.e2e_value("interactions_per_s", raw), 1e8)
        self.assertEqual(run.e2e_value("setup_s", raw), 0.2)
        with self.assertRaises(KeyError):
            run.e2e_value("requests_per_s", raw)

    def test_layer_values_reduce_from_a_raw_document(self):
        raw = {"values": {"interactions": 1e9, "run_s": 4.0, "trace.spans": 7},
               "samples": {"serve.store.spill_us": [1.0, 2.0, 3.0, 4.0, 5.0],
                           "pp.kernel.compile_s": [3.0, 1.0, 2.0]}}
        self.assertEqual(run.layer_value("trace.spans", raw), 7)
        self.assertEqual(run.layer_value("pp.kernel.compile_s", raw), 2.0)
        self.assertEqual(run.layer_value("serve.store.spills", raw), 5)
        self.assertEqual(run.layer_value("serve.store.spill_p50_us", raw), 3.0)
        self.assertEqual(run.layer_value("trace.interactions_per_s", raw),
                         2.5e8)

if __name__ == "__main__":
    unittest.main()
