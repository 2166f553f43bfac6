#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream-ieee30 --seed 1 \
        --seconds 10 --trace 0

The benchmark program and the library are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of standard output is the run's JSON result; the lines before it
list the output checks and every metric with its unit and sample count.
Exits non-zero, without a result line, when the build fails or the
result does not match the metric lists in BENCHMARK.json; exits with the
program's exit code otherwise (1 when an output check failed).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream-ieee30", "locate-ieee30", "build-ieee57")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the program; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    # Configure once; later builds re-run CMake themselves when a build
    # file changed.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return os.path.join(build_dir, "pw_perfbench")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.stderr.write("benchmark build failed (log: %s)\n" % log_path)
    return None


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def result_problems(line, trace):
    """Differences between a result line and the declared metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    expected = expected_metrics(trace)
    if expected is not None:
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            units = sorted(k for k in set(got) & set(expected)
                           if got[k] != expected[k])
            problems.append("metrics differ from BENCHMARK.json: missing %s, "
                            "extra %s, unit mismatch %s" % (missing, extra, units))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        return 3

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark run timed out after %d s\n" % RUN_TIMEOUT_S)
        return 5
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    problems = result_problems(lines[-1], args.trace == "1")
    if problems:
        sys.stdout.flush()
        sys.stderr.write("benchmark result rejected: %s\n" % "; ".join(problems))
        return 4
    sys.stdout.write(lines[-1] + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
