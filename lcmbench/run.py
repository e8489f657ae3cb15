#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 lcmbench/run.py --workload compile_batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first call configures and builds
lcmbench/CMakeLists.txt (the repository's libraries, lcm_serve, lcm_router
and the lcmbench program) into .bench_build/lcmbench; later calls rebuild
only what changed.  Build output goes to .bench_build/lcmbench-build.log.
The program's standard output is passed through; its last line is the
result object.  Exits non-zero, without a result, when the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("compile_batch", "serve_fleet", "edit_loop")
RUN_TIMEOUT_S = 170


def build(root, build_dir, log_path):
    """Configure (once) and build; returns True on success."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "lcmbench"), "-B", build_dir]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                # A failed configure must not leave a cache that looks usable.
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        res = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                             stdout=log, stderr=log)
        return res.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    out_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_dir, "lcmbench")
    if not build(root, build_dir, os.path.join(out_dir, "lcmbench-build.log")):
        print("lcmbench: build failed; see .bench_build/lcmbench-build.log",
              file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "lcmbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    # Its own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("lcmbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
