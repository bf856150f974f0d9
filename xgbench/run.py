#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 xgbench/run.py --workload fabric_day|serve_herd|cfd_job \
        --seed N --seconds S --trace 0|1

Builds the driver (xgbench/CMakeLists.txt, which compiles the fabric
libraries under src/) into .bench_build/xgbench, or $CARGO_TARGET_DIR/xgbench
when that variable is set, then runs the requested workload in its own
process. The driver checks its outputs; this script checks that the result
line names exactly the metrics BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1) and prints it as the
last line of stdout. Exits non-zero, without a result line, when the build
fails, the driver fails or times out, or the result does not match the
declaration; exits 1 after printing the result when a correctness check
failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fabric_day", "serve_herd", "cfd_job")
# A run must end within 180 s; the build has its own, longer allowance.
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 1500


def fail(msg):
    print("xgbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "xgbench")


def run_logged(cmd, log_path, timeout):
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(os.path.dirname(log_path), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=env, timeout=timeout).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log.write("%s\n" % e)
            return -1


def build(out):
    """Configure once, then build incrementally; returns the driver path."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        log_path, BUILD_TIMEOUT_S)
        if rc != 0:
            # Leave no half-configured tree behind for the next run.
            cache = os.path.join(out, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            fail("configure failed; see " + log_path)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", out, "--target", "xgbench_driver",
                     "-j", jobs], log_path, BUILD_TIMEOUT_S)
    if rc != 0:
        fail("build failed; see " + log_path)
    return os.path.join(out, "xgbench_driver")


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[section]}


def check_result(result, declared):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return key + " is not a whole number"
    if result["attempted"] < 1:
        return "nothing attempted"
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        return "metric set differs (missing %s, extra %s)" % (missing, extra)
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            return "metric %s has the wrong shape or unit" % name
        if not isinstance(m["value"], (int, float)):
            return "metric %s is not a number" % name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds < 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600)")

    declared = declared_metrics(args.trace)
    out = build_dir()
    driver = build(out)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(out, "trace_%s.json" % args.workload)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=out, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    problem = ("driver printed no result line" if result is None
               else check_result(result, declared))
    if problem is not None:
        fail("%s (driver exit %d after %.1f s)" %
             (problem, proc.returncode, time.monotonic() - started))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        fail("correctness checks failed (driver exit %d)" % proc.returncode)


if __name__ == "__main__":
    main()
