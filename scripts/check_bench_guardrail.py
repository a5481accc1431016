#!/usr/bin/env python3
"""Perf guardrail over BENCH_micro.json (google-benchmark JSON output).

Compares the classic replay kernel with the flat kernel on the HDD-array
replay micro benchmark:

    ratio = real_time(BM_ReplayHddArray) /
            real_time(BM_ReplayHddArraySharded/<shards>)

Two modes (exit 1 when the gate fails):

  --max-ratio=R    the classic kernel, which the product path runs, must
                   stay within R times the flat kernel: fails when
                   ratio > R. CI runs this with --shards=1 --max-ratio=1.5.
  --min-speedup=S  the flat kernel must stay at least S times faster than
                   the classic one: fails when ratio < S. The default mode
                   (S = 2.0) when --max-ratio is not given.

CI runs this in the bench-smoke job after micro_core; a PR labelled
`skip-perf-guardrail` skips the step (noisy runners, or a change that
knowingly trades replay speed for something else — say why in the PR).

The label escape hatch also works inside the script: when the PR_LABELS
environment variable (comma-separated, exported by the workflow) contains
`skip-perf-guardrail`, the check reports SKIPPED and exits 0, so the gate
cannot fail a PR that explicitly opted out even if the workflow-level
condition is missed.

Usage: check_bench_guardrail.py BENCH_micro.json [--shards=4]
           [--min-speedup=2.0 | --max-ratio=1.5]

Exit codes: 0 pass/skip, 1 guardrail violation, 2 bad input (missing or
malformed results file, bad flags).
"""

import json
import os
import sys

SKIP_LABEL = "skip-perf-guardrail"


def fail(message):
    """Bad input (flags, file, schema): exit 2, distinct from the exit-1
    guardrail violation so CI can tell 'slow' from 'broken'."""
    print(message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    """Returns (path, shards, min_speedup, max_ratio); exactly one of the
    two thresholds is set, the other is None."""
    path = None
    shards = 4
    min_speedup = None
    max_ratio = None
    try:
        for arg in argv[1:]:
            if arg.startswith("--shards="):
                shards = int(arg.split("=", 1)[1])
            elif arg.startswith("--min-speedup="):
                min_speedup = float(arg.split("=", 1)[1])
            elif arg.startswith("--max-ratio="):
                max_ratio = float(arg.split("=", 1)[1])
            elif arg.startswith("--"):
                fail(f"unknown flag: {arg}")
            elif path is None:
                path = arg
            else:
                fail(f"unexpected argument: {arg}")
    except ValueError as err:
        fail(f"bad flag value: {err}")
    if path is None:
        fail(__doc__)
    if shards < 1:
        fail(f"--shards must be >= 1, got {shards}")
    if min_speedup is not None and max_ratio is not None:
        fail("--min-speedup and --max-ratio are exclusive modes")
    if max_ratio is None and min_speedup is None:
        min_speedup = 2.0
    if min_speedup is not None and min_speedup <= 0:
        fail(f"--min-speedup must be > 0, got {min_speedup}")
    if max_ratio is not None and max_ratio <= 0:
        fail(f"--max-ratio must be > 0, got {max_ratio}")
    return path, shards, min_speedup, max_ratio


def skip_labelled(environ=os.environ):
    """True when the PR carries the opt-out label (PR_LABELS is the
    workflow-exported comma-separated label list)."""
    labels = environ.get("PR_LABELS", "")
    return SKIP_LABEL in (label.strip() for label in labels.split(","))


def load_benchmarks(path):
    """Parse the google-benchmark JSON file; exits 2 with a one-line
    diagnostic on a missing, unreadable, or malformed file (a truncated
    artifact from a cancelled bench run must not traceback)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as err:
        fail(f"FATAL: cannot read '{path}': {err.strerror or err}")
    except json.JSONDecodeError as err:
        fail(f"FATAL: '{path}' is not valid JSON ({err})")
    benchmarks = doc.get("benchmarks") if isinstance(doc, dict) else None
    if not isinstance(benchmarks, list):
        fail(f"FATAL: '{path}' has no 'benchmarks' array "
             "(not google-benchmark --benchmark_format=json output?)")
    return benchmarks


def best_time(benchmarks, name):
    """Minimum real_time across entries for `name` (repetitions and
    aggregate rows both appear in the JSON; the minimum of the raw
    repetitions is the least-noisy estimator on shared runners)."""
    times = [
        b["real_time"]
        for b in benchmarks
        if b.get("run_name", b["name"]) == name
        and b.get("run_type", "iteration") == "iteration"
    ]
    if not times:
        fail(f"FATAL: benchmark '{name}' not found in results")
    return min(times)


def main(argv, environ=os.environ):
    path, shards, min_speedup, max_ratio = parse_args(argv)
    if skip_labelled(environ):
        print(f"SKIPPED: PR carries the '{SKIP_LABEL}' label")
        return 0
    benchmarks = load_benchmarks(path)

    classic = best_time(benchmarks, "BM_ReplayHddArray")
    sharded = best_time(benchmarks, f"BM_ReplayHddArraySharded/{shards}")
    ratio = classic / sharded
    print(f"BM_ReplayHddArray:           {classic:12.0f} ns")
    print(f"BM_ReplayHddArraySharded/{shards}: {sharded:12.0f} ns")
    if max_ratio is not None:
        print(f"classic/sharded: {ratio:.2f}x (guardrail: at most "
              f"{max_ratio:.2f}x)")
        if ratio > max_ratio:
            print(
                f"FAIL: classic replay is {ratio:.2f}x the sharded kernel's "
                f"time, above the {max_ratio:.2f}x guardrail",
                file=sys.stderr,
            )
            return 1
    else:
        print(f"speedup: {ratio:.2f}x (guardrail: {min_speedup:.2f}x)")
        if ratio < min_speedup:
            print(
                f"FAIL: sharded replay speedup {ratio:.2f}x is below the "
                f"{min_speedup:.2f}x guardrail",
                file=sys.stderr,
            )
            return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
