#!/usr/bin/env python3
"""Steadiness check: run every workload K times in two separated sets.

    python3 lcmbench/steady.py [--runs K]

Run from the root of a checkout.  Both sets use seeds 1..K, so they run
the same inputs, and each run measures for BENCHMARK.json's run_seconds.
The sets are separated by GAP_S seconds of idle time, because the host's
drift is slow, and within a set the workloads are interleaved, so drift
hits all alike.  Prints, per workload and end-to-end metric, each set's
median and quartile spread (Q3-Q1 as a share of the median, quartiles as
Python's statistics.quantiles(n=4) gives them), the shift between the set
medians, and the failed-operation share of each set.  The quality counts
(dyn_evals, static_instrs, temp_live_slots) must repeat exactly; any that
differs between two runs is reported, and the exit status is then 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile_batch", "serve_fleet", "edit_loop")
COUNTS = ("dyn_evals", "static_instrs", "temp_live_slots")
GAP_S = 60


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit("incorrect outputs: %s seed %d" % (workload, seed))
    return res


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    sets = []
    for s in range(2):
        if s:
            time.sleep(GAP_S)
        runs = {w: [] for w in WORKLOADS}
        for seed in range(1, args.runs + 1):
            for w in WORKLOADS:
                runs[w].append(one_run(w, seed, seconds))
        sets.append(runs)

    status = 0
    for w in WORKLOADS:
        print("%s" % w)
        print("  %-18s %14s %8s %14s %8s %8s" %
              ("metric", "median A", "IQR A", "median B", "IQR B", "shift"))
        for m in sets[0][w][0]["metrics"]:
            a = [r["metrics"][m]["value"] for r in sets[0][w]]
            b = [r["metrics"][m]["value"] for r in sets[1][w]]
            ma, sa = spread(a)
            mb, sb = spread(b)
            shift = (mb - ma) / ma if ma else 0.0
            print("  %-18s %14.6g %7.2f%% %14.6g %7.2f%% %+7.2f%%" %
                  (m, ma, 100 * sa, mb, 100 * sb, 100 * shift))
            if m in COUNTS and len(set(a + b)) != 1:
                print("  NOT EXACT: %s takes the values %s" %
                      (m, sorted(set(a + b))))
                status = 1
        fails = [sum(r["failed"] for r in runs[w]) /
                 sum(r["attempted"] for r in runs[w]) for runs in sets]
        print("  failed share: A %.6g  B %.6g" % tuple(fails))
    return status


if __name__ == "__main__":
    sys.exit(main())
