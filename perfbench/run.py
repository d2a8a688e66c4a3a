#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload campus-serial --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # build and run the benchmark's own tests

Run from the repository root. The first run configures and builds the
mobiwlan libraries and the benchmark program into the build directory
($CARGO_TARGET_DIR if set, else .bench_build); later runs only check that the
build is current. Build output goes to <build>/build.log, so the last line of
standard output is the benchmark's JSON result. Exits non-zero without printing
a result when the sources are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campus-serial", "campus-parallel", "loc-mixed", "link-trace")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory or None."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"run.py: no mobiwlan sources ({need} missing under {ROOT})",
                  file=sys.stderr)
            return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                print("run.py: build failed:\n" + "".join(tail), file=sys.stderr)
                return None
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.test:
        out = build(["perfbench_test"])
        if out is None:
            return 1
        return subprocess.run(["ctest", "--output-on-failure", "-R", "perfbench_test"],
                              cwd=out).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")
    out = build(["mwbench"])
    if out is None:
        return 1

    tmp = os.path.join(out, f"run-{os.getpid()}")
    traces = os.path.join(out, "traces")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "mwbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp-dir", tmp,
           "--trace-out", os.path.join(traces, f"{args.workload}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: mwbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
