"""Unit tests of bench_pairs.py's verdicts and gate.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import json
import unittest

from bench_pairs import gate, judge, parse_run

METRICS = ["wall_s", "work_per_s"]


def result_line(correct=True, failed=0, **values):
    values = values or {m: 1.0 for m in METRICS}
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}})


class Verdicts(unittest.TestCase):
    def test_identical_samples_are_same(self):
        xs = [8.0, 8.2, 8.1, 7.9, 8.3]
        s = judge(xs, list(xs), "lower", 0.25)
        self.assertEqual((s.verdict, s.wins), ("same", 0))

    def test_a_one_and_a_half_times_slower_change_is_worse(self):
        xs = [8.0, 8.2, 8.1, 7.9, 8.3]
        self.assertEqual(judge(xs, [1.5 * x for x in xs], "lower", 0.25).verdict, "worse")

    def test_a_slowdown_inside_the_bound_is_not_worse(self):
        xs = [8.0, 8.2, 8.1, 7.9, 8.3]
        self.assertEqual(judge(xs, [1.2 * x for x in xs], "lower", 0.25).verdict, "same")

    def test_a_base_spread_wider_than_the_bound_is_unresolved(self):
        base = [5.0, 8.0, 10.0, 12.0, 15.0]
        s = judge(base, list(base), "lower", 0.25)
        self.assertGreater(s.base_iqr, 0.25 * s.base_median)
        self.assertEqual(s.verdict, "unresolved")

    def test_nine_wins_of_ten_and_a_gap_past_the_iqr_is_better(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        change = [x - 1.0 for x in base]
        change[3] = base[3] + 0.5  # one pair lost
        s = judge(base, change, "lower", 0.25)
        self.assertEqual((s.wins, s.verdict), (9, "better"))

    def test_eight_wins_of_ten_is_not_better(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        change = [x - 1.0 for x in base]
        change[3] = base[3] + 0.5
        change[5] = base[5]  # a tie counts for neither side
        s = judge(base, change, "lower", 0.25)
        self.assertEqual((s.wins, s.verdict), (8, "same"))

    def test_a_gap_inside_the_iqr_is_not_better(self):
        base = [9.0, 11.0, 9.5, 10.5, 10.0, 9.2, 10.8, 9.7, 10.3, 10.0]
        change = [x - 0.1 for x in base]
        s = judge(base, change, "lower", 0.25)
        self.assertEqual((s.wins, s.verdict), (10, "same"))

    def test_higher_is_better_metrics_are_judged_upward(self):
        base = [100.0, 102.0, 98.0, 101.0, 99.0]
        self.assertEqual(judge(base, [0.6 * x for x in base], "higher", 0.25).verdict, "worse")
        self.assertEqual(judge(base, [1.6 * x for x in base], "higher", 0.25).verdict, "better")
        self.assertEqual(judge(base, [1.6 * x for x in base], "lower", 0.25).verdict, "worse")


class Gate(unittest.TestCase):
    def test_a_good_run_parses(self):
        result, problem = parse_run(0, "table\n" + result_line() + "\n", METRICS)
        self.assertIsNone(problem)
        self.assertEqual(result["metrics"]["wall_s"]["value"], 1.0)

    def test_a_failed_run_fails_the_gate(self):
        for code, out in [(1, result_line()), (1, "build failed\n"), (0, ""),
                          (0, "not json\n"), (0, result_line(wall_s=1.0))]:
            _, problem = parse_run(code, out, METRICS)
            self.assertIsNotNone(problem, (code, out))
            self.assertEqual(gate({}, [problem], 0, 0), [problem])

    def test_a_correct_false_run_fails_the_gate(self):
        result, problem = parse_run(0, result_line(correct=False, failed=2), METRICS)
        self.assertIn("correct: false", problem)
        self.assertEqual(result["failed"], 2)
        self.assertTrue(gate({}, [problem], 0, 2))

    def test_a_worse_metric_fails_the_gate_and_same_passes(self):
        xs = [8.0, 8.2, 8.1, 7.9, 8.3]
        same = judge(xs, list(xs), "lower", 0.25)
        worse = judge(xs, [2 * x for x in xs], "lower", 0.25)
        self.assertEqual(gate({("paper_check", "wall_s"): same}, [], 0, 0), [])
        self.assertEqual(gate({("paper_check", "wall_s"): worse}, [], 0, 0),
                         ["paper_check wall_s is worse"])

    def test_more_failed_checks_than_the_base_fails_the_gate(self):
        self.assertTrue(gate({}, [], 0, 1))
        self.assertEqual(gate({}, [], 1, 1), [])


if __name__ == "__main__":
    unittest.main()
