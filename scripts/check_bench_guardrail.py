#!/usr/bin/env python3
"""Perf guardrail over micro_core results (google-benchmark JSON output).

Compares the replay path with the proportional filter from the same run:

    ratio = real_time(BM_ReplayHddArray) / real_time(BM_ProportionalFilter/100)

BM_ReplayHddArray replays a 2000-bunch trace onto a 6-disk RAID-5
DiskArray, the path every campaign test runs. The filter benchmark shares
no code with replay and takes a similar time, so the ratio cancels most of
the runner's speed and leaves the replay path's own cost. Each benchmark's
time is the median over its repetitions. Run micro_core with
--benchmark_repetitions=20 --benchmark_enable_random_interleaving=true so
both benchmarks sample the same stretch of a shared runner's load; on a
shared 4-vCPU VM this halved the run-to-run spread of the ratio compared
with the minimum over 3 repetitions run back to back (docs/PERF.md).

  --max-ratio=R    fails (exit 1) when ratio > R.

CI runs this in the bench-smoke job after micro_core; a PR labelled
`skip-perf-guardrail` skips the step (noisy runners, or a change that
knowingly trades replay speed for something else — say why in the PR).

The label escape hatch also works inside the script: when the PR_LABELS
environment variable (comma-separated, exported by the workflow) contains
`skip-perf-guardrail`, the check reports SKIPPED and exits 0, so the gate
cannot fail a PR that explicitly opted out even if the workflow-level
condition is missed.

Usage: check_bench_guardrail.py RESULTS.json --max-ratio=R

Exit codes: 0 pass/skip, 1 guardrail violation, 2 bad input (missing or
malformed results file, bad flags).
"""

import json
import os
import statistics
import sys

SKIP_LABEL = "skip-perf-guardrail"
REPLAY = "BM_ReplayHddArray"
REFERENCE = "BM_ProportionalFilter/100"


def fail(message):
    """Bad input (flags, file, schema): exit 2, distinct from the exit-1
    guardrail violation so CI can tell 'slow' from 'broken'."""
    print(message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    """Returns (path, max_ratio)."""
    path = None
    max_ratio = None
    try:
        for arg in argv[1:]:
            if arg.startswith("--max-ratio="):
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
    if max_ratio is None:
        fail("--max-ratio is required")
    if max_ratio <= 0:
        fail(f"--max-ratio must be > 0, got {max_ratio}")
    return path, max_ratio


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


def median_time(benchmarks, name):
    """Median real_time over the raw repetitions of `name` (aggregate rows
    also appear in the JSON and are skipped)."""
    times = [
        b["real_time"]
        for b in benchmarks
        if b.get("run_name", b["name"]) == name
        and b.get("run_type", "iteration") == "iteration"
    ]
    if not times:
        fail(f"FATAL: benchmark '{name}' not found in results")
    return statistics.median(times)


def main(argv, environ=os.environ):
    path, max_ratio = parse_args(argv)
    if skip_labelled(environ):
        print(f"SKIPPED: PR carries the '{SKIP_LABEL}' label")
        return 0
    benchmarks = load_benchmarks(path)

    replay = median_time(benchmarks, REPLAY)
    reference = median_time(benchmarks, REFERENCE)
    ratio = replay / reference
    print(f"{REPLAY}:         {replay:12.0f} ns")
    print(f"{REFERENCE}: {reference:12.0f} ns")
    print(f"replay/filter: {ratio:.2f}x (guardrail: at most "
          f"{max_ratio:.2f}x)")
    if ratio > max_ratio:
        print(
            f"FAIL: replay takes {ratio:.2f}x the filter's time, above the "
            f"{max_ratio:.2f}x guardrail",
            file=sys.stderr,
        )
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
