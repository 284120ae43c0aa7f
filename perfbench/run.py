#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the octree library and the perfbench binary from the checkout's
sources (Release, into $CARGO_TARGET_DIR or .bench_build), runs the
helper self-tests, then runs one workload in its own process and relays
its output. The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build_full --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
with span recording on and prints the per-layer metrics, layer tables and
span self times (the spans are also written to
<build dir>/traces/<workload>-seed<n>.json).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build_full", "route_zipf", "churn_live")
# A run must end within 180 s; leave room to stop and report.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base).resolve()


def build(out):
    """Configures (once) and builds perfbench; False when it cannot."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no octree sources at {ROOT / 'src'}; nothing to build")
        return False
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                            stdout=sys.stderr)
    if result.returncode != 0:
        log("build failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = build_root()
    out = root / "perfbench"
    if not build(out):
        return 2
    if subprocess.run([str(out / "perfbench_selftest")]).returncode != 0:
        log("helper self-tests failed; refusing to report")
        return 3

    workdir = root / "work" / f"{args.workload}-{os.getpid()}"
    trace_file = root / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        command += ["--trace-file", str(trace_file)]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        log("workload printed no result line")
        return 5
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(stdout)
        log("result line has unexpected keys")
        return 5
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
