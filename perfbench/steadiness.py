#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end benchmark.

Runs each workload N times (seeds first-seed .. first-seed+N-1, tracing
off) and prints, for every end-to-end metric, the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) as
a share of the median, beside the metric's bound from BENCHMARK.json.
A spread above its bound is flagged OVER (setup_s excepted: its bound
caps the median's drift, not the spread); above a third of the bound it
is flagged "wide". The share of failed operations must be identical in
every run of a workload.

With --baseline it also compares each median with the same metric's
median in an earlier --json-out file, and flags a median that is worse
by more than the bound: two sets of runs of the same code should pass.

    python3 perfbench/steadiness.py --runs 10 --json-out set1.json
    python3 perfbench/steadiness.py --runs 10 --baseline set1.json

Exits nonzero when any run fails, any check fails or anything is OVER.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--json-out", help="save every run's result here")
    parser.add_argument("--baseline", help="an earlier --json-out file")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    results = {}
    bad = 0
    for workload in args.workloads:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            runs.append(run_once(workload, seed, args.seconds))
            sys.stderr.write("%s seed %d done\n" % (workload, seed))
        results[workload] = runs
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        print("== %s: %d runs x %gs, failed share %s"
              % (workload, len(runs), args.seconds,
                 ", ".join(str(s) for s in sorted(shares))))
        if len(shares) > 1:
            print("   OVER: the failed share differs between runs")
            bad += 1
        print("   %-22s %12s %12s %12s %8s %7s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > m["bound"]:
                flag = "OVER"
            elif name != "setup_s" and spread > m["bound"] / 3:
                flag = "wide"
            if workload in baseline:
                old = statistics.quantiles(
                    [r["metrics"][name]["value"]
                     for r in baseline[workload]], n=4)[1]
                drift = (med - old) / old if old else 0.0
                worse = drift if m["better"] == "lower" else -drift
                if worse > m["bound"]:
                    flag = (flag + " DRIFT %+.1f%%" % (100 * drift)).strip()
            if "OVER" in flag or "DRIFT" in flag:
                bad += 1
            print("   %-22s %12.6g %12.6g %12.6g %7.2f%% %6.0f%% %s" % (
                name, med, q1, q3, 100 * spread, 100 * m["bound"], flag))
        if not all(r["correct"] for r in runs):
            print("   OVER: a run reported correct=false")
            bad += 1
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
