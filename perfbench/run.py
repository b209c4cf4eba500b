#!/usr/bin/env python3
"""Build and run the service benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark compiles the library sources of the checkout (src/) with
its own CMake package (perfbench/CMakeLists.txt) into .bench_build/, runs
one workload in a fresh process and forwards its output: the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Shard files live in a per-run directory under
.bench_build/ that is removed when the run ends. With --trace 1 the
benchmark's own spans are written to .bench_build/spans/.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("lookup-uniform", "update-zipf", "grow-online")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    # One build at a time per checkout; a finished build is a quick no-op.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true", help="build and run the self-tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.selftest:
        sys.exit(run([os.path.join(BUILD, "perfbench_selftest")]))

    data_dir = os.path.join(BUILD_ROOT, f"run-{os.getpid()}")
    cmd = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data-dir", data_dir,
    ]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}.json")]
    try:
        rc = run(cmd)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
