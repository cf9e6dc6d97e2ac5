#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload paper_peak --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (the dispatch libraries from
src/ plus the aride_perfbench program) into $CARGO_TARGET_DIR, default .bench_build/, with
CMake. Every call then runs aride_perfbench, whose last stdout line is the JSON
result, and checks that line against BENCHMARK.json. --smoke runs every
workload at a twentieth of its size, traced and untraced, in seconds.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no program sources under src/ to build")
        sys.exit(2)
    cmake_dir = os.path.join(build_root, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target",
                  "aride_perfbench", "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(cmake_dir, "aride_perfbench")


def binary_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def expected_metrics(trace):
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    """Returns a list of problems with the JSON result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: " + line[:200]]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are " + ", ".join(sorted(result))]
    problems = []
    if result["correct"] is not True:
        problems.append("output checks failed")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    if os.path.isfile(SPEC_PATH):
        want = expected_metrics(trace)
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != want:
            problems.append("metrics differ from BENCHMARK.json: missing %s, "
                            "extra %s" % (sorted(set(want) - set(got)),
                                          sorted(set(got) - set(want))))
        if not trace:
            zero = [k for k, v in result["metrics"].items()
                    if v["value"] == 0]
            if zero:
                problems.append("end-to-end metrics read 0: %s" % zero)
    return problems


def run_bench(binary, build_root, argv, trace, echo=True):
    traces = os.path.join(build_root, "traces")
    prints = os.path.join(build_root, "fingerprints", binary_digest(binary))
    os.makedirs(traces, exist_ok=True)
    os.makedirs(prints, exist_ok=True)
    cmd = [binary] + argv + ["--trace-dir", traces, "--fingerprint-dir",
                             prints]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0:
        return ["aride_perfbench exited with code %d" % proc.returncode], lines
    return check_result(lines[-1], trace), lines


def smoke(binary, build_root, seconds):
    with open(SPEC_PATH) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = 0
    for name in workloads:
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", "1", "--seconds",
                    str(seconds), "--trace", str(trace), "--smoke"]
            problems, lines = run_bench(binary, build_root, argv, trace,
                                         echo=False)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            log("smoke %-14s trace=%d  %s" % (name, trace, status))
            if problems:
                failures += 1
                log("\n".join(lines[-20:]))
    print(json.dumps({"smoke_failures": failures}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if args.smoke:
        return smoke(binary, build_root, 1)

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    problems, _ = run_bench(binary, build_root, argv, args.trace)
    for p in problems:
        log("perfbench: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
