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


def bench_json(classic_ns, sharded_ns, shards=4):
    """Minimal google-benchmark JSON with raw repetitions + aggregates
    (aggregates must be ignored by best_time)."""
    entries = []
    for t in classic_ns:
        entries.append({"name": "BM_ReplayHddArray",
                        "run_name": "BM_ReplayHddArray",
                        "run_type": "iteration", "real_time": t})
    for t in sharded_ns:
        name = f"BM_ReplayHddArraySharded/{shards}"
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
    def test_defaults(self):
        args = guardrail.parse_args(["x", "b.json"])
        self.assertEqual(args, ("b.json", 4, 2.0, None))

    def test_threshold_and_shards_flags(self):
        args = guardrail.parse_args(
            ["x", "--shards=8", "--min-speedup=3.5", "b.json"])
        self.assertEqual(args, ("b.json", 8, 3.5, None))

    def test_max_ratio_flag_selects_ratio_mode(self):
        args = guardrail.parse_args(
            ["x", "--shards=1", "--max-ratio=1.5", "b.json"])
        self.assertEqual(args, ("b.json", 1, None, 1.5))

    def test_both_modes_exit_2(self):
        code, _, err = self.run_main(
            ["--min-speedup=2.0", "--max-ratio=1.5", "b.json"])
        self.assertEqual(code, 2)
        self.assertIn("exclusive", err)

    def test_nonpositive_max_ratio_exits_2(self):
        code, _, err = self.run_main(["--max-ratio=-1", "b.json"])
        self.assertEqual(code, 2)
        self.assertIn("max-ratio", err)

    def test_non_numeric_max_ratio_exits_2(self):
        code, _, err = self.run_main(["--max-ratio=slow", "b.json"])
        self.assertEqual(code, 2)
        self.assertIn("bad flag value", err)

    def test_non_numeric_threshold_exits_2(self):
        code, _, err = self.run_main(["--min-speedup=fast", "b.json"])
        self.assertEqual(code, 2)
        self.assertIn("bad flag value", err)

    def test_unknown_flag_exits_2(self):
        code, _, err = self.run_main(["--frobnicate", "b.json"])
        self.assertEqual(code, 2)
        self.assertIn("unknown flag", err)

    def test_nonpositive_threshold_exits_2(self):
        code, _, err = self.run_main(["--min-speedup=0", "b.json"])
        self.assertEqual(code, 2)
        self.assertIn("min-speedup", err)

    def test_missing_path_exits_2(self):
        code, _, _ = self.run_main([])
        self.assertEqual(code, 2)


class GuardrailTest(TempFileMixin):
    def test_passes_above_threshold(self):
        path = self.write(json.dumps(bench_json([4000.0], [1000.0])))
        code, out, _ = self.run_main([path])
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)
        self.assertIn("4.00x", out)

    def test_fails_below_threshold(self):
        path = self.write(json.dumps(bench_json([1500.0], [1000.0])))
        code, _, err = self.run_main([path])
        self.assertEqual(code, 1)
        self.assertIn("below the 2.00x guardrail", err)

    def test_min_of_repetitions_ignores_aggregates(self):
        # Best classic 4000 / best sharded 1000 = 4.0x even though other
        # repetitions (and a poisoned aggregate row) would fail.
        path = self.write(json.dumps(
            bench_json([9000.0, 4000.0], [1000.0, 8000.0])))
        code, out, _ = self.run_main([path, "--min-speedup=3.9"])
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)

    def test_threshold_flag_is_enforced(self):
        path = self.write(json.dumps(bench_json([4000.0], [1000.0])))
        code, _, err = self.run_main([path, "--min-speedup=4.5"])
        self.assertEqual(code, 1)
        self.assertIn("4.50x", err)

    def test_missing_benchmark_exits_2(self):
        path = self.write(json.dumps({"benchmarks": []}))
        code, _, err = self.run_main([path])
        self.assertEqual(code, 2)
        self.assertIn("not found", err)


class MaxRatioTest(TempFileMixin):
    """--max-ratio: the classic kernel must stay within R x the flat one."""

    def test_passes_at_or_below_ratio(self):
        path = self.write(json.dumps(bench_json([1200.0], [1000.0], 1)))
        code, out, _ = self.run_main([path, "--shards=1", "--max-ratio=1.5"])
        self.assertEqual(code, 0)
        self.assertIn("1.20x", out)
        self.assertIn("PASS", out)

    def test_ratio_equal_to_bound_passes(self):
        path = self.write(json.dumps(bench_json([1500.0], [1000.0], 1)))
        code, out, _ = self.run_main([path, "--shards=1", "--max-ratio=1.5"])
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)

    def test_fails_above_ratio(self):
        # A result the old speedup gate would pass (2.5x >= 2.0x) is what
        # the ratio gate exists to reject.
        path = self.write(json.dumps(bench_json([2500.0], [1000.0], 1)))
        code, _, err = self.run_main([path, "--shards=1", "--max-ratio=1.5"])
        self.assertEqual(code, 1)
        self.assertIn("above the 1.50x guardrail", err)

    def test_uses_min_of_repetitions(self):
        # Best classic 1400 / best sharded 1000 = 1.4x; the slow classic
        # repetition and the poisoned aggregate row must not count.
        path = self.write(json.dumps(
            bench_json([9000.0, 1400.0], [1000.0, 1100.0], 1)))
        code, out, _ = self.run_main([path, "--shards=1", "--max-ratio=1.5"])
        self.assertEqual(code, 0)
        self.assertIn("1.40x", out)

    def test_reads_the_requested_shard_count(self):
        path = self.write(json.dumps(bench_json([1200.0], [1000.0], 4)))
        code, _, err = self.run_main([path, "--shards=1", "--max-ratio=1.5"])
        self.assertEqual(code, 2)
        self.assertIn("BM_ReplayHddArraySharded/1", err)

    def test_label_skips_ratio_mode(self):
        code, out, _ = self.run_main(
            ["/nonexistent/bench.json", "--shards=1", "--max-ratio=1.5"],
            environ={"PR_LABELS": "skip-perf-guardrail"})
        self.assertEqual(code, 0)
        self.assertIn("SKIPPED", out)


class SkipLabelTest(TempFileMixin):
    def test_label_skips_without_reading_results(self):
        # No results file at all: the opt-out must win before I/O.
        code, out, _ = self.run_main(
            ["/nonexistent/bench.json"],
            environ={"PR_LABELS": "docs,skip-perf-guardrail"})
        self.assertEqual(code, 0)
        self.assertIn("SKIPPED", out)

    def test_label_list_is_exact_match(self):
        path = self.write(json.dumps(bench_json([1500.0], [1000.0])))
        code, _, _ = self.run_main(
            [path], environ={"PR_LABELS": "skip-perf-guardrail-not-really"})
        self.assertEqual(code, 1)

    def test_label_whitespace_tolerated(self):
        code, out, _ = self.run_main(
            ["/nonexistent/bench.json"],
            environ={"PR_LABELS": "perf , skip-perf-guardrail "})
        self.assertEqual(code, 0)
        self.assertIn("SKIPPED", out)


class MalformedInputTest(TempFileMixin):
    def test_truncated_json_exits_2_with_diagnostic(self):
        path = self.write('{"benchmarks": [{"name": "BM_Re')
        code, _, err = self.run_main([path])
        self.assertEqual(code, 2)
        self.assertIn("not valid JSON", err)

    def test_json_without_benchmarks_array_exits_2(self):
        path = self.write(json.dumps({"context": {}}))
        code, _, err = self.run_main([path])
        self.assertEqual(code, 2)
        self.assertIn("no 'benchmarks' array", err)

    def test_non_object_json_exits_2(self):
        path = self.write(json.dumps([1, 2, 3]))
        code, _, err = self.run_main([path])
        self.assertEqual(code, 2)
        self.assertIn("no 'benchmarks' array", err)

    def test_missing_file_exits_2(self):
        code, _, err = self.run_main(["/nonexistent/bench.json"])
        self.assertEqual(code, 2)
        self.assertIn("cannot read", err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
