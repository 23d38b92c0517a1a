"""Tests for the benchmark's arithmetic.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import unittest

import benchlib as bl


def span(start, end, parent=None, req=0, name="layer"):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "req": req}


class TailTest(unittest.TestCase):
    def test_rungs_need_ten_samples_beyond(self):
        self.assertEqual(bl.tail(list(range(19)))[0], 100.0)
        self.assertEqual(bl.tail(list(range(20)))[0], 50.0)
        self.assertEqual(bl.tail(list(range(39)))[0], 50.0)
        self.assertEqual(bl.tail(list(range(40)))[0], 75.0)
        self.assertEqual(bl.tail(list(range(99)))[0], 75.0)
        self.assertEqual(bl.tail(list(range(100)))[0], 90.0)
        self.assertEqual(bl.tail(list(range(200)))[0], 95.0)
        self.assertEqual(bl.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(bl.tail(list(range(10000)))[0], 99.9)

    def test_samples_beyond_is_exact_at_rung_boundaries(self):
        self.assertEqual(bl.samples_beyond(100, 90.0), 10)
        self.assertEqual(bl.samples_beyond(10000, 99.9), 10)
        self.assertEqual(bl.samples_beyond(9999, 99.9), 9)

    def test_tail_value_is_a_sample_at_or_above_the_median(self):
        values = [float(v) for v in range(1, 101)]
        p, value = bl.tail(values)
        self.assertEqual((p, value), (90.0, 90.0))
        self.assertGreaterEqual(value, bl.percentile(values, 50))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(bl.tail([3.0, 1.0, 2.0]), (100.0, 3.0))

    def test_nearest_rank_percentile(self):
        self.assertEqual(bl.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(bl.percentile([1, 2, 3, 4], 50), 2)
        self.assertEqual(bl.percentile([1, 2, 3, 4], 100), 4)
        self.assertEqual(bl.percentile([7], 1), 7)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(bl.self_times([span(10, 25)]), [15])

    def test_parent_loses_what_children_cover(self):
        spans = [span(0, 100), span(10, 30, parent=0), span(50, 90, parent=0)]
        self.assertEqual(bl.self_times(spans), [40, 20, 40])

    def test_nested_spans_only_subtract_direct_children(self):
        spans = [span(0, 100), span(10, 60, parent=0), span(20, 30, parent=1)]
        self.assertEqual(bl.self_times(spans), [50, 40, 10])

    def test_overlapping_children_are_counted_once(self):
        spans = [span(0, 100), span(10, 50, parent=0), span(40, 70, parent=0)]
        self.assertEqual(bl.self_times(spans)[0], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, 100), span(90, 120, parent=0)]
        self.assertEqual(bl.self_times(spans)[0], 90)

    def test_layer_times_sum_self_times_per_request_and_name(self):
        spans = [
            span(0, 100, req=1, name="serve.resolve"),
            span(0, 30, parent=0, req=1, name="delta.apply"),
            span(30, 90, parent=0, req=1, name="results.capture"),
            span(100, 110, req=2, name="serve.query"),
            span(100, 104, parent=3, req=2, name="results.query"),
            span(104, 108, parent=3, req=2, name="results.query"),
        ]
        self.assertEqual(
            bl.layer_times(spans),
            {1: {"delta.apply": 30, "results.capture": 60}, 2: {"results.query": 8}},
        )


class FailureTest(unittest.TestCase):
    EXPECTED = {"ok": True, "degraded": False, "resolve": "incremental", "reachable": 9}

    def test_matching_reply_passes_whatever_the_resolve_mode(self):
        reply = dict(self.EXPECTED, resolve="fallback:scc-structure", extra=1)
        self.assertIsNone(bl.reply_failure(reply, self.EXPECTED))

    def test_degraded_reply_counts_as_failed(self):
        reply = dict(self.EXPECTED, degraded=True, error="budget exhausted")
        self.assertIn("degraded", bl.reply_failure(reply, self.EXPECTED))

    def test_not_ok_missing_and_wrong_replies_count_as_failed(self):
        self.assertIn("ok:false", bl.reply_failure({"ok": False, "error": "x"}, self.EXPECTED))
        self.assertEqual(bl.reply_failure(None, self.EXPECTED), "no reply")
        self.assertIn("reachable", bl.reply_failure(dict(self.EXPECTED, reachable=8), self.EXPECTED))

    def test_fail_ratio_counts_degraded_replies(self):
        replies = [self.EXPECTED, dict(self.EXPECTED, degraded=True), self.EXPECTED, None]
        failed = sum(bl.reply_failure(r, self.EXPECTED) is not None for r in replies)
        self.assertEqual(bl.fail_ratio(len(replies), failed), 0.5)
        self.assertEqual(bl.fail_ratio(0, 0), 0.0)


class AnalyzeOutputTest(unittest.TestCase):
    OUT = (
        "CSC: completed in 159.36ms (2540 reachable methods, 26895 call edges, 2 threads, "
        "6 pauses, 33 steals, 79% coordinator)\n"
        "  cut: 181 store sites, 250 returns; shortcuts: 4935\n"
        "  #fail-cast=867 #reach-mtd=2540 #poly-call=870 #call-edge=26895\n"
    )
    ROW = {
        "reachable": 2540,
        "call_edges": 26895,
        "metrics": {"fail_casts": 867, "reach_methods": 2540, "poly_calls": 870, "call_edges": 26895},
    }

    def test_parses_the_printed_answer(self):
        self.assertIsNone(bl.analyze_failure(bl.parse_analyze(self.OUT), self.ROW))
        sequential = self.OUT.replace("2 threads, 6 pauses, 33 steals, 79% coordinator", "sequential")
        self.assertEqual(bl.parse_analyze(sequential), bl.parse_analyze(self.OUT))

    def test_wrong_or_missing_answers_fail(self):
        wrong = bl.parse_analyze(self.OUT.replace("#poly-call=870", "#poly-call=871"))
        self.assertIn("metrics", bl.analyze_failure(wrong, self.ROW))
        self.assertIsNone(bl.parse_analyze("CSC: budget exhausted after 1s\n"))
        self.assertEqual(bl.analyze_failure(None, self.ROW), "no answer printed")


class SlopeTest(unittest.TestCase):
    def test_least_squares_slope(self):
        self.assertAlmostEqual(bl.slope([100.0, 103.0, 106.0, 109.0]), 3.0)
        self.assertEqual(bl.slope([5.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
