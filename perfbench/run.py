#!/usr/bin/env python3
"""End-to-end benchmark of the cDMA reproduction.

Builds the benchmark program from the library sources (perfbench/
CMakeLists.txt, into .bench_build/perfbench at the repository root),
runs one workload and prints its result as the last line of standard
output: one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the program also writes a Chrome trace-event
file under .bench_build/traces, which this script validates (per-thread
monotonic timestamps, properly nested spans) before it reports.

    python3 perfbench/run.py --workload vgg16_b1_serial --seed 1 \\
        --seconds 10 --trace 0

Exits nonzero, without a result line, when the build fails, and nonzero
with correct=false when any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
JOBS = "4"


def build():
    """Configure once, then let the build tool decide what is stale."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def check_trace(path):
    """Problems with the trace file; empty when it is well formed."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as err:
        return ["trace %s does not load: %s" % (path, err)]
    problems = []
    tracks = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        if not isinstance(e.get("name"), str) or e.get("dur", -1) < 0:
            problems.append("malformed span %r" % e)
            continue
        tracks.setdefault((e["pid"], e["tid"]), []).append(e)
    if not tracks:
        problems.append("trace %s holds no spans" % path)
    # Timestamps are printed at 1 ns resolution, so ends may disagree by
    # a rounding step.
    slack = 0.002
    for track, spans in tracks.items():
        for prev, cur in zip(spans, spans[1:]):
            if cur["ts"] < prev["ts"]:
                problems.append("track %s: %s at %.3f us before %s at %.3f"
                                % (track, cur["name"], cur["ts"],
                                   prev["name"], prev["ts"]))
                break
        stack = []
        for e in sorted(spans, key=lambda e: (e["ts"], -e["dur"])):
            end = e["ts"] + e["dur"]
            while stack and e["ts"] >= stack[-1][1] - slack:
                stack.pop()
            if stack and end > stack[-1][1] + slack:
                problems.append("track %s: %s [%.3f, %.3f] overlaps %s"
                                % (track, e["name"], e["ts"], end,
                                   stack[-1][0], ))
                break
            stack.append((e["name"], end))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: no result line (exit %d)\n"
                         % done.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    problems = check_trace(trace_path) if trace_path else []
    if done.returncode != 0 and result.get("correct", False):
        problems.append("program exited %d" % done.returncode)
    for p in problems:
        sys.stderr.write("perfbench: CHECK FAILED: %s\n" % p)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
