#!/usr/bin/env python3
"""Unit tests for scripts/check_bench_guardrail.py (registered in ctest as
check_bench_guardrail_unit; CI runs them in the bench-smoke job before the
real gate so a broken gate script fails loudly instead of vacuously
passing)."""

import importlib.util
import io
import json
import os
import pathlib
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts" /
          "check_bench_guardrail.py")
spec = importlib.util.spec_from_file_location("check_bench_guardrail", SCRIPT)
guardrail = importlib.util.module_from_spec(spec)
spec.loader.exec_module(guardrail)


def bench_json(replay_ns, filter_ns):
    """Minimal google-benchmark JSON with raw repetitions + aggregates
    (aggregates must be ignored by median_time)."""
    entries = []
    for name, times in ((guardrail.REPLAY, replay_ns),
                        (guardrail.REFERENCE, filter_ns)):
        for t in times:
            entries.append({"name": name, "run_name": name,
                            "run_type": "iteration", "real_time": t})
    entries.append({"name": "BM_ReplayHddArray_mean",
                    "run_name": "BM_ReplayHddArray",
                    "run_type": "aggregate", "real_time": 1e12})
    return {"benchmarks": entries}


class TempFileMixin(unittest.TestCase):
    def write(self, content):
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False)
        self.addCleanup(os.unlink, handle.name)
        with handle as f:
            f.write(content)
        return handle.name

    def run_main(self, argv, environ=None):
        out, err = io.StringIO(), io.StringIO()
        environ = environ if environ is not None else {}
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = guardrail.main(["check"] + argv, environ)
        except SystemExit as exit_info:
            code = exit_info.code
        return code, out.getvalue(), err.getvalue()


class ParseArgsTest(TempFileMixin):
    def test_max_ratio_flag(self):
        args = guardrail.parse_args(["x", "--max-ratio=1.5", "b.json"])
        self.assertEqual(args, ("b.json", 1.5))

    def test_missing_max_ratio_exits_2(self):
        code, _, err = self.run_main(["b.json"])
        self.assertEqual(code, 2)
        self.assertIn("--max-ratio is required", err)

    def test_removed_flags_exit_2(self):
        for flag in ("--shards=1", "--min-speedup=2.0"):
            code, _, err = self.run_main([flag, "--max-ratio=1.5", "b.json"])
            self.assertEqual(code, 2, flag)
            self.assertIn("unknown flag", err)

    def test_nonpositive_max_ratio_exits_2(self):
        code, _, err = self.run_main(["--max-ratio=-1", "b.json"])
        self.assertEqual(code, 2)
        self.assertIn("max-ratio", err)

    def test_non_numeric_max_ratio_exits_2(self):
        code, _, err = self.run_main(["--max-ratio=slow", "b.json"])
        self.assertEqual(code, 2)
        self.assertIn("bad flag value", err)

    def test_unknown_flag_exits_2(self):
        code, _, err = self.run_main(["--frobnicate", "b.json"])
        self.assertEqual(code, 2)
        self.assertIn("unknown flag", err)

    def test_missing_path_exits_2(self):
        code, _, _ = self.run_main([])
        self.assertEqual(code, 2)


class MaxRatioTest(TempFileMixin):
    """The replay path must stay within R x the filter benchmark."""

    def test_passes_below_ratio(self):
        path = self.write(json.dumps(bench_json([1200.0], [1000.0])))
        code, out, _ = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 0)
        self.assertIn("1.20x", out)
        self.assertIn("PASS", out)

    def test_ratio_equal_to_bound_passes(self):
        path = self.write(json.dumps(bench_json([1500.0], [1000.0])))
        code, out, _ = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)

    def test_fails_above_ratio(self):
        path = self.write(json.dumps(bench_json([2500.0], [1000.0])))
        code, _, err = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 1)
        self.assertIn("above the 1.50x guardrail", err)

    def test_uses_median_of_repetitions(self):
        # Median replay 1400 / median filter 1000 = 1.4x; the outlying
        # repetitions and the poisoned aggregate row must not count.
        path = self.write(json.dumps(
            bench_json([9000.0, 1400.0, 1300.0], [1000.0, 100.0, 1100.0])))
        code, out, _ = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 0)
        self.assertIn("1.40x", out)

    def test_missing_replay_benchmark_exits_2(self):
        path = self.write(json.dumps(bench_json([], [1000.0])))
        code, _, err = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 2)
        self.assertIn("'BM_ReplayHddArray' not found", err)

    def test_missing_reference_benchmark_exits_2(self):
        path = self.write(json.dumps(bench_json([1000.0], [])))
        code, _, err = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 2)
        self.assertIn("'BM_ProportionalFilter/100' not found", err)

    def test_ignores_other_filter_args(self):
        # BM_ProportionalFilter/10 is faster; only /100 is the reference.
        doc = bench_json([1200.0], [1000.0])
        doc["benchmarks"].append({"name": "BM_ProportionalFilter/10",
                                  "run_name": "BM_ProportionalFilter/10",
                                  "run_type": "iteration",
                                  "real_time": 100.0})
        path = self.write(json.dumps(doc))
        code, out, _ = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 0)
        self.assertIn("1.20x", out)


class SkipLabelTest(TempFileMixin):
    def test_label_skips_without_reading_results(self):
        # No results file at all: the opt-out must win before I/O.
        code, out, _ = self.run_main(
            ["/nonexistent/bench.json", "--max-ratio=1.5"],
            environ={"PR_LABELS": "docs,skip-perf-guardrail"})
        self.assertEqual(code, 0)
        self.assertIn("SKIPPED", out)

    def test_label_list_is_exact_match(self):
        path = self.write(json.dumps(bench_json([2500.0], [1000.0])))
        code, _, _ = self.run_main(
            [path, "--max-ratio=1.5"], environ={"PR_LABELS": "skip-perf-guardrail-not-really"})
        self.assertEqual(code, 1)

    def test_label_whitespace_tolerated(self):
        code, out, _ = self.run_main(
            ["/nonexistent/bench.json", "--max-ratio=1.5"],
            environ={"PR_LABELS": "perf , skip-perf-guardrail "})
        self.assertEqual(code, 0)
        self.assertIn("SKIPPED", out)


class MalformedInputTest(TempFileMixin):
    def test_truncated_json_exits_2_with_diagnostic(self):
        path = self.write('{"benchmarks": [{"name": "BM_Re')
        code, _, err = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 2)
        self.assertIn("not valid JSON", err)

    def test_json_without_benchmarks_array_exits_2(self):
        path = self.write(json.dumps({"context": {}}))
        code, _, err = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 2)
        self.assertIn("no 'benchmarks' array", err)

    def test_non_object_json_exits_2(self):
        path = self.write(json.dumps([1, 2, 3]))
        code, _, err = self.run_main([path, "--max-ratio=1.5"])
        self.assertEqual(code, 2)
        self.assertIn("no 'benchmarks' array", err)

    def test_missing_file_exits_2(self):
        code, _, err = self.run_main(["/nonexistent/bench.json", "--max-ratio=1.5"])
        self.assertEqual(code, 2)
        self.assertIn("cannot read", err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
