#!/usr/bin/env python3
"""Deploy benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the t2c library and the benchmark
binaries from source (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, builds the seeded fixture in its own process, then measures
one workload. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list.
Everything is written under the checkout: the build tree, a per-run work
directory under .bench_work (removed at the end) and, for traced runs, the
Chrome trace under .bench_work/traces.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
        return 1


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (build_dir / "CMakeCache.txt").exists() and run_logged(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    code = run_logged(["cmake", "--build", str(build_dir), "-j", jobs,
                       "--target", "t2c_deploy_bench", "perfbench_fixture_test"],
                      max(1.0, deadline - time.monotonic()))
    return build_dir if code == 0 else None


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(trace):
    return [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]


def check_result(stdout, trace):
    """Checks the last line of stdout against the contract."""
    result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        raise ValueError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ set(want))}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = build()
    if build_dir is None:
        log("perfbench: build failed")
        return 1
    binary = build_dir / "t2c_deploy_bench"

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", str(work)]
        if args.workload != "export-roundtrip":
            if run_logged([str(binary), "fixture", *common], RUN_DEADLINE_S) != 0:
                log("perfbench: fixture failed")
                return 1
        cmd = [str(binary), "run", *common, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            traces = work_root / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.trace.json")]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                  text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("perfbench: measurement timed out")
            return 1
        if proc.returncode != 0:
            log(proc.stdout)
            log(f"perfbench: measurement exited with {proc.returncode}")
            return 1
        try:
            check_result(proc.stdout, args.trace)
        except (ValueError, KeyError) as e:
            log(f"perfbench: bad result line: {e}")
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
