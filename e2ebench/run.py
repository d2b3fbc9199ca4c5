#!/usr/bin/env python3
"""Layered end-to-end benchmark for Aegis.

Builds the e2ebench driver from this checkout's sources and runs one
workload in a single process:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

A run prints its report, then, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json for --trace 0, its per-layer metrics
for --trace 1. It exits 1 when a correctness check fails or the run breaks.
--self-test builds and runs the benchmark's own tests.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RESULT_PREFIX = "E2EBENCH_RESULT "
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures (once) and builds `target`; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Aegis sources in {os.path.join(ROOT, 'src')}; "
             "run from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD_DIR, "--target", target,
                  "-j", str(BUILD_JOBS)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, target)


def load_manifest():
    try:
        with open(MANIFEST) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {MANIFEST}: {e}")


def select_metrics(declared, reported):
    """The declared metrics, in declaration order, from the run's report."""
    metrics = {}
    for spec in declared:
        got = reported.get(spec["name"])
        if got is None:
            fail(f"metric {spec['name']} missing from the run")
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} reported in {got['unit']}, "
                 f"declared in {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def run_workload(args):
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {names}")
    binary = build("e2ebench")

    workdir = os.path.join(ROOT, ".bench_build", "runs", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None or proc.returncode not in (0, 1):
        fail(f"{args.workload} exited with code {proc.returncode} "
             "and no result")

    declared = manifest["per_layer" if args.trace else "end_to_end"]
    reported = result["layers" if args.trace else "metrics"]
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select_metrics(declared, reported),
    }))
    return 0 if correct else 1


def self_test():
    return subprocess.run([build("e2ebench_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
