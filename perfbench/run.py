#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-medium --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is compiled from source into
.bench_build/perfbench (Release) on first use; later runs only rebuild what
changed. The last line of standard output is the result JSON. Spans of the
traced replay are written to .bench_build/perfbench-spans/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "perfbench-spans")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src; cannot build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_bench(args, extra=()):
    os.makedirs(SPANS, exist_ok=True)
    spans = os.path.join(
        SPANS, f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", spans, "--commit", commit_id(), *extra]
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S}s: " + " ".join(cmd))
        return None


def self_test():
    """The benchmark's own tests, on tiny graphs."""
    if not build(["perfbench", "perfbench_test"]):
        return 1
    unit = os.path.join(BUILD, "perfbench_test")
    if not os.path.isfile(unit):
        log("GTest not found at configure time; perfbench_test not built")
        return 1
    if subprocess.run([unit]).returncode:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=7, seconds=0.5,
                                      trace=trace)
            proc = run_bench(args, ["--band", "tiny"])
            if proc is None or proc.returncode != 0:
                log(f"{workload} trace={trace}: exit "
                    f"{None if proc is None else proc.returncode}")
                if proc is not None:
                    sys.stderr.write(proc.stderr)
                failures += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (got == want and result["correct"] is True
                  and result["failed"] == 0 and result["attempted"] >= 1)
            log(f"{workload} trace={trace}: "
                f"{'ok' if ok else 'FAILED'} ({len(got)} metrics)")
            if not ok:
                log(f"  missing={sorted(set(want) - set(got))} "
                    f"extra={sorted(set(got) - set(want))} "
                    f"units={[k for k in want if k in got and got[k] != want[k]]}")
                failures += 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        return 2
    proc = run_bench(args)
    if proc is None:
        return 1
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
