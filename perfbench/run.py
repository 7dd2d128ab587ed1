#!/usr/bin/env python3
"""Repository benchmark: VOTM + RAC on the paper's workloads, end to end.

    python3 perfbench/run.py --workload eigen|intruder|vacation \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the driver (perfbench/CMakeLists.txt, which compiles the library
from ../src) into .bench_build/perfbench, runs one workload for --seconds
with N = nproc worker threads, and prints two JSON lines: the run's host
and build context, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
--selftest runs every workload at a tiny size in both modes, checks that
every metric named in BENCHMARK.json is emitted with its unit, that the
correctness gates pass, and that the driver commits exactly as many
transactions as the library's own driver for the same input.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "votm_perfbench")
WORKLOADS = ("eigen", "intruder", "vacation")
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("repository sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def driver(*args):
    """Runs the driver and returns its last output line, parsed."""
    try:
        done = subprocess.run([BINARY, *args], stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(args))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("driver failed (exit %d): %s" % (done.returncode,
                                                          " ".join(args)))
    return json.loads(lines[-1])


def cpu_times():
    """Aggregate jiffies from /proc/stat: (total, iowait, steal)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    fields += [0] * (8 - len(fields))
    # user nice system idle iowait irq softirq steal [guest guest_nice]; the
    # guest times are already counted in user and nice.
    return sum(fields[:8]), fields[4], fields[7]


def share(before, after, index):
    if before is None or after is None or after[0] == before[0]:
        return 0.0
    return (after[index] - before[index]) / (after[0] - before[0])


def gate(out, names):
    """The result's correctness: gates passed, every metric present."""
    metrics = out["metrics"]
    return (out["failed"] == 0 and out["attempted"] >= 1 and
            all(n in metrics and math.isfinite(metrics[n]["value"])
                for n in names))


def run(args):
    build()
    names = [n for n, _ in driver("--list-metrics")[
        "per_layer" if args.trace else "end_to_end"]]
    before = cpu_times()
    out = driver("--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace))
    after = cpu_times()
    context = {
        "workload": out["workload"], "seed": out["seed"],
        "nproc": len(os.sched_getaffinity(0)), "threads": out["threads"],
        "build": out["build"],
        "rounds_untraced": out["rounds_untraced"],
        "rounds_traced": out["rounds_traced"],
        "steal_share": share(before, after, 2),
        "iowait_share": share(before, after, 1),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": gate(out, names),
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": out["metrics"]}))


def selftest():
    build()
    problems = []
    listed = driver("--list-metrics")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        for key in ("end_to_end", "per_layer"):
            want = sorted((m["name"], m["unit"]) for m in spec[key])
            have = sorted(tuple(m) for m in listed[key])
            if want != have:
                problems.append("%s metrics differ from BENCHMARK.json: %s"
                                % (key, sorted(set(want) ^ set(have))))
        if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
            problems.append("workloads differ from BENCHMARK.json")
    for workload in WORKLOADS:
        for trace in (0, 1):
            key = "per_layer" if trace else "end_to_end"
            out = driver("--workload", workload, "--seed", "1", "--seconds",
                         "0.2", "--trace", str(trace), "--smoke", "1")
            for name, unit in listed[key]:
                got = out["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    problems.append("%s: %s missing or without unit %s"
                                    % (workload, name, unit))
            if not gate(out, [n for n, _ in listed[key]]):
                problems.append("%s trace=%d: gate failed (%d of %d ops)"
                                % (workload, trace, out["failed"],
                                   out["attempted"]))
            if not trace and any(m["value"] <= 0 for m in out["metrics"].values()):
                problems.append("%s: an end-to-end metric is not positive"
                                % workload)
        # VacationWorld runs its N task streams concurrently, so its commit
        # count depends on the interleaving (a sold-out row skips the
        # customer transaction); at N = 1 both drivers run one stream in
        # order. Eigenbench and Intruder commit a fixed count at any N.
        threads = ["--threads", "1"] if workload == "vacation" else []
        p = driver("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--smoke", "1", "--parity", "1", *threads)
        print("%-8s parity: driver %d commits, world %d commits (N = %d)"
              % (workload, p["driver_commits"], p["world_commits"], p["threads"]))
        if p["failed"] != 0 or p["driver_commits"] != p["world_commits"]:
            problems.append("%s: driver/world parity failed" % workload)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        run(args)
        return 0
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
