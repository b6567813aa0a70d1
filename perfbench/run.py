#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload.

Run from the root of a topogen checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

The driver and the topogen libraries build in Release (fault points
compiled out) under .bench_build/ in the checkout; later runs reuse the
build. Each run gets its own scratch directory under .bench_tmp/ (the
serve_store artifact cache, the traced mode's spans), removed when the
run ends. The last line of standard output is the driver's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("figures", "serve_warm", "serve_store")
BUILD_DIR = ".bench_build"
TMP_ROOT = ".bench_tmp"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(root):
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", jobs],
    )
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench_driver")


def cpu_times():
    """(steal, total) jiffies of the host's CPUs, or None where unreadable."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--perturb", default=None,
                        help="corrupt the input of one named output check")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        return fail("run from the root of a topogen checkout (no src/)")
    driver = build(root)
    if driver is None:
        return fail("build failed")

    os.makedirs(os.path.join(root, TMP_ROOT), exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, TMP_ROOT))
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--tmpdir", tmpdir]
    if args.perturb:
        command += ["--perturb", args.perturb]
    before = cpu_times()
    try:
        proc = subprocess.Popen(command)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
            after = cpu_times()
            if before and after and after[1] > before[1]:
                # Time the hypervisor gave the host's CPUs to other guests:
                # the run's noise floor.
                print("# host steal %.1f%% of CPU time during the run"
                      % (100.0 * (after[0] - before[0]) / (after[1] - before[1])),
                      file=sys.stderr)
            return code
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return fail("driver did not finish in %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, TMP_ROOT))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
