#!/usr/bin/env python3
"""TRACER benchmark: builds the driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload campaign|fleet --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The driver (driver.cpp) is built with CMake into .bench_build/ (or
$CARGO_TARGET_DIR) from the checkout's src/. Each run gets its own working
directory under the build directory, removed when the run ends. The last line
of standard output is the run's JSON result; the line before it carries
provenance. The exit status is non-zero when the build fails or an output
check fails.

Output checks beyond the driver's own: for the pinned seed the results digest
must equal perfbench/pinned.json, and for any seed the campaign and fleet
digests must agree (the first of the two to pass its checks records its
digest in the build directory; the second compares).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "fleet")
# A run must end within 180 s (900 s when it compiles); the build step is a
# no-op after the first run in a checkout.
DRIVER_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 700


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(ROOT, root)
    return os.path.join(root, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench_driver"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build failed: {error}")
            return None
        if done.returncode != 0:
            log("build failed:\n" + (done.stdout + done.stderr)[-4000:])
            shutil.rmtree(out, ignore_errors=True)
            return None
    return os.path.join(out, "perfbench_driver")


def source_digest():
    """SHA-256 over the library and driver sources (the checkout is not
    necessarily a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_driver(driver, workload, seed, seconds, trace, quick=False,
               expect_digest=None):
    """Run the driver once; returns (exit code, info dict, result dict)."""
    workdir = os.path.join(build_dir(), "runs", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    command = [driver, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--workdir", workdir]
    if quick:
        command.append("--quick")
    if expect_digest:
        command += ["--expect-digest", expect_digest]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1, None, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = None
    result = None
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("perfbench-info "):
            info = json.loads(line[len("perfbench-info "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, info, result


def load_json(path, default):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return default


def cross_check(workload, seed, digest, sources):
    """Campaign and fleet must produce the same results for the same seed
    and sources. Call only for a run that passed its own checks; its digest
    is recorded only when it agrees. Returns False on a mismatch."""
    path = os.path.join(build_dir(), "digests.json")
    known = load_json(path, {})
    entry = known.setdefault(f"{sources}:{seed}", {})
    other_workload = "fleet" if workload == "campaign" else "campaign"
    other = entry.get(other_workload)
    if other is None:
        log(f"{workload}: no {other_workload} digest for seed {seed} yet; "
            "campaign == fleet not checked by this run")
    elif other != digest:
        log(f"{workload} digest {digest} != {other_workload} digest {other}")
        return False
    entry[workload] = digest
    with open(path, "w") as handle:
        json.dump(known, handle)
    return True


def bench(args):
    driver = build()
    if driver is None:
        return 1
    pinned = load_json(os.path.join(HERE, "pinned.json"), {})
    expect = None
    if args.seed == pinned.get("seed"):
        expect = pinned.get("digests", {}).get(args.workload)
    sources = source_digest()
    code, info, result = run_driver(
        driver, args.workload, args.seed, args.seconds, args.trace,
        expect_digest=expect)
    if result is None or info is None:
        log(f"{args.workload}: driver exited {code} without a result")
        return 1
    correct = code == 0 and result.get("correct") is True
    if correct and not cross_check(args.workload, args.seed, info["digest"], sources):
        correct = False
    result["correct"] = correct
    provenance = dict(info, git_sha=git_sha(), source_sha256=sources,
                      pinned_digest=expect)
    flags = []
    if info.get("debug_build") or info.get("build_type") == "Debug":
        flags.append("debug build")
    if info.get("sanitizers"):
        flags.append("sanitizer build")
    provenance["warnings"] = flags
    print("perfbench-provenance " + json.dumps(provenance))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def self_test():
    """Quick-size run of every workload: every metric of BENCHMARK.json is
    printed with its unit, campaign and fleet agree, and a perturbed pinned
    digest fails the run."""
    driver = build()
    if driver is None:
        return 1
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), None)
    if spec is None:
        log("self-test: BENCHMARK.json not found")
        return 1
    failures = []
    digests = {}
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            code, info, result = run_driver(driver, workload, 1, 1, trace, quick=True)
            tag = f"{workload} --trace {int(trace)}"
            if code != 0 or not result or not result.get("correct"):
                failures.append(f"{tag}: run failed (exit {code})")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if not result["attempted"] >= 1:
                failures.append(f"{tag}: attempted {result['attempted']}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v.get("unit") for k, v in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{tag}: metrics {printed} != {expected}")
            digests[workload] = info["digest"]
        if workload not in digests:
            continue
        wrong = format(int(digests[workload], 16) ^ 1, "016x")
        code, _, result = run_driver(driver, workload, 1, 1, False, quick=True,
                                     expect_digest=wrong)
        if code == 0 or (result and result.get("correct")):
            failures.append(f"{workload}: a perturbed pinned digest did not fail")
        code, _, result = run_driver(driver, workload, 1, 1, False, quick=True,
                                     expect_digest=digests[workload])
        if code != 0 or not result or not result.get("correct"):
            failures.append(f"{workload}: the correct pinned digest failed")
    if digests.get("campaign") != digests.get("fleet"):
        failures.append(f"campaign digest {digests.get('campaign')} != "
                        f"fleet digest {digests.get('fleet')}")
    for failure in failures:
        log("self-test FAILED: " + failure)
    log("self-test " + ("passed" if not failures else "failed"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
