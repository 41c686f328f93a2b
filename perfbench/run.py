#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload two_readers|one_reader --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
perfbench package (perfbench/CMakeLists.txt, which builds the fsim library
from the repository's own build file) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild incrementally. Build
output goes to standard error. The benchmark's report is passed through to
standard output, and its last line is checked to be the one-line JSON
result {"correct", "attempted", "failed", "metrics"}, holding exactly the
metrics BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1) in their units, before it is printed again as the
last line. Exits non-zero, without a result line, when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("two_readers", "one_reader")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def manifest_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in manifest[key]}


def parse_result(line, expected=None):
    """Parses and validates the benchmark's one-line JSON result.

    `expected` ({name: unit}), when given, is the exact metric set the line
    must hold. Raises ValueError when the line is not exactly the result
    format.
    """
    result = json.loads(line)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError("result keys must be exactly %s" % sorted(RESULT_KEYS))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError("%s must be a whole number" % key)
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("need attempted >= 1 and 0 <= failed <= attempted")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("metrics must be a non-empty object")
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            raise ValueError("metric %s must have exactly value and unit" % name)
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("metric %s value must be a number" % name)
        if not isinstance(metric["unit"], str) or not metric["unit"]:
            raise ValueError("metric %s unit must be a string" % name)
    if expected is not None:
        got = {name: metric["unit"] for name, metric in metrics.items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            units = sorted(n for n in set(got) & set(expected)
                           if got[n] != expected[n])
            raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                             "unlisted %s, wrong unit %s"
                             % (missing, extra, units))
    return result


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.join(ROOT, target), "perfbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    try:
        expected = manifest_metrics(args.trace == 1)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print("perfbench: cannot read BENCHMARK.json: %s" % err,
              file=sys.stderr)
        return 1
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", bdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    # The report without its last line: a failed run prints no result.
    report = "\n".join(lines[:-1])
    if report:
        print(report)
    if run.returncode != 0:
        print("perfbench: exit code %d" % run.returncode, file=sys.stderr)
        return 1
    try:
        parse_result(lines[-1], expected)
    except ValueError as err:
        print("perfbench: malformed result line: %s" % err, file=sys.stderr)
        return 1
    print(lines[-1])  # validated; printed as measured
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
