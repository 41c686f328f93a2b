"""Tests of run.py's result-line validation.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

# Exactly what Report::JsonLine prints (perfbench_test.cc pins the C++ side).
GOOD = ('{"correct": true, "attempted": 10, "failed": 0, "metrics": '
        '{"latency_ms": {"value": 1.25, "unit": "ms"}, '
        '"setup_s": {"value": 0.5, "unit": "s"}}}')


class ParseResultTest(unittest.TestCase):
    def test_accepts_the_benchmark_line(self):
        result = run.parse_result(GOOD)
        self.assertEqual(result["attempted"], 10)
        self.assertEqual(result["metrics"]["latency_ms"],
                         {"value": 1.25, "unit": "ms"})

    def test_keeps_every_digit(self):
        line = GOOD.replace("1.25", "1.2345678901234567")
        self.assertEqual(
            run.parse_result(line)["metrics"]["latency_ms"]["value"],
            1.2345678901234567)

    def mutated(self, mutate):
        result = json.loads(GOOD)
        mutate(result)
        return json.dumps(result)

    def test_rejects_malformed_lines(self):
        bad = [
            "",
            "not json",
            "[1, 2]",
            self.mutated(lambda r: r.pop("failed")),
            self.mutated(lambda r: r.update(extra=1)),
            self.mutated(lambda r: r.update(correct="yes")),
            self.mutated(lambda r: r.update(attempted=0)),
            self.mutated(lambda r: r.update(attempted=1.5)),
            self.mutated(lambda r: r.update(failed=11)),
            self.mutated(lambda r: r.update(metrics={})),
            self.mutated(lambda r: r["metrics"]["setup_s"].pop("unit")),
            self.mutated(lambda r: r["metrics"]["setup_s"].update(n=3)),
            self.mutated(lambda r: r["metrics"]["setup_s"].update(value="1")),
            self.mutated(lambda r: r["metrics"]["setup_s"].update(value=True)),
        ]
        for line in bad:
            with self.assertRaises(ValueError, msg=line):
                run.parse_result(line)

    def test_checks_the_metric_set_when_given(self):
        expected = {"latency_ms": "ms", "setup_s": "s"}
        self.assertEqual(run.parse_result(GOOD, expected)["attempted"], 10)
        for other in ({"latency_ms": "ms"},
                      {"latency_ms": "ms", "setup_s": "s", "qps": "1/s"},
                      {"latency_ms": "us", "setup_s": "s"}):
            with self.assertRaises(ValueError, msg=other):
                run.parse_result(GOOD, other)

    def test_failed_runs_still_parse(self):
        line = self.mutated(lambda r: r.update(correct=False, failed=3))
        self.assertFalse(run.parse_result(line)["correct"])


class ManifestTest(unittest.TestCase):
    def test_lists_every_mode_and_setup_time(self):
        end_to_end = run.manifest_metrics(False)
        self.assertEqual(end_to_end["setup_s"], "s")
        self.assertTrue(run.manifest_metrics(True))
        self.assertFalse(set(end_to_end) & set(run.manifest_metrics(True)))


class BuildDirTest(unittest.TestCase):
    def test_follows_the_target_dir_variable(self):
        old = os.environ.get("CARGO_TARGET_DIR")
        try:
            os.environ["CARGO_TARGET_DIR"] = ".bench_build"
            self.assertEqual(run.build_dir(),
                             os.path.join(run.ROOT, ".bench_build", "perfbench"))
            del os.environ["CARGO_TARGET_DIR"]
            self.assertEqual(run.build_dir(),
                             os.path.join(run.ROOT, ".bench_build", "perfbench"))
        finally:
            if old is not None:
                os.environ["CARGO_TARGET_DIR"] = old


if __name__ == "__main__":
    unittest.main()
