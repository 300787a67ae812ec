"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_benchstats.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(benchstats.percentile(list(range(1, 101)), 90), 90)
        with self.assertRaises(benchstats.TooFewSamples):
            benchstats.percentile(list(range(1, 100)), 90)

    def test_p50_of_small_sample_is_refused(self):
        with self.assertRaises(benchstats.TooFewSamples):
            benchstats.percentile([1, 2, 3], 50)
        self.assertEqual(benchstats.percentile(list(range(20)), 50), 9)

    def test_unsorted_input_and_p99(self):
        values = list(reversed(range(1, 1001)))
        self.assertEqual(benchstats.percentile(values, 99), 990)
        with self.assertRaises(benchstats.TooFewSamples):
            benchstats.percentile(values[:999], 99)

    def test_out_of_range_percentile(self):
        with self.assertRaises(ValueError):
            benchstats.percentile(list(range(1000)), 100)


class SliceTest(unittest.TestCase):
    def test_split_follows_counts(self):
        self.assertEqual(benchstats.split_slices([1, 2, 3, 4, 5, 6], [1, 3, 2]),
                         [[1], [2, 3, 4], [5, 6]])
        with self.assertRaises(ValueError):
            benchstats.split_slices([1, 2, 3], [1, 1])

    def test_one_slow_slice_does_not_move_the_median(self):
        fast = list(range(100, 200))
        slow = [v * 3 for v in fast]
        values = fast + fast + slow + fast + fast
        p50 = lambda s: benchstats.percentile(s, 50)  # noqa: E731
        self.assertEqual(
            benchstats.median_over_slices(values, [100] * 5, p50), 149)

    def test_each_slice_needs_enough_samples(self):
        values = list(range(300))
        p90 = lambda s: benchstats.percentile(s, 90)  # noqa: E731
        benchstats.median_over_slices(values, [100, 100, 100], p90)
        with self.assertRaises(benchstats.TooFewSamples):
            benchstats.median_over_slices(values, [150, 99, 51], p90)


class MedianOfReopensTest(unittest.TestCase):
    def test_odd_count_takes_middle_reopen(self):
        ns = [3.0e8, 9.0e8, 2.0e8, 2.5e8, 2.8e8]
        self.assertAlmostEqual(benchstats.median_of_reopens(ns), 0.28)

    def test_even_count_averages_middle_pair(self):
        ns = [4.0e8, 1.0e8, 3.0e8, 2.0e8]
        self.assertAlmostEqual(benchstats.median_of_reopens(ns), 0.25)

    def test_one_slow_reopen_does_not_move_it(self):
        ns = [2.0e8, 2.0e8, 2.0e8, 5.0e9, 2.0e8]
        self.assertAlmostEqual(benchstats.median_of_reopens(ns), 0.2)

    def test_too_few_reopens_refused(self):
        with self.assertRaises(benchstats.TooFewSamples):
            benchstats.median_of_reopens([1.0e8, 2.0e8])


def span(span_id, parent, name, start, end, request=0):
    return (span_id, parent, request, name, start, end)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchstats.self_times([span(1, 0, "a", 10, 25)]),
                         {1: 15})

    def test_nested_children_subtract_from_parent_only(self):
        spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "commit", 10, 60),
            span(3, 2, "journal", 40, 55),  # grandchild: not the root's
            span(4, 1, "query", 70, 90),
        ]
        self.assertEqual(benchstats.self_times(spans),
                         {1: 100 - 50 - 20, 2: 50 - 15, 3: 15, 4: 20})

    def test_overlapping_children_count_once(self):
        spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 50),
            span(3, 1, "b", 30, 70),   # overlaps a on [30, 50)
            span(4, 1, "c", 60, 65),   # inside b
        ]
        self.assertEqual(benchstats.self_times(spans)[1], 100 - 60)

    def test_child_outside_parent_is_clipped(self):
        spans = [
            span(1, 0, "root", 10, 50),
            span(2, 1, "late", 40, 80),
            span(3, 1, "early", 0, 5),
        ]
        self.assertEqual(benchstats.self_times(spans)[1], 40 - 10)

    def test_by_name_groups_self_times(self):
        spans = [
            span(1, 0, "request", 0, 30),
            span(2, 1, "query", 0, 10),
            span(3, 0, "request", 100, 150),
            span(4, 3, "query", 110, 140),
        ]
        self.assertEqual(benchstats.self_times_by_name(spans),
                         {"request": [20, 20], "query": [10, 30]})


if __name__ == "__main__":
    unittest.main()
