#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --study W [--runs N] [--seconds S]
                             [--trace 0|1]

The first form builds the benchmark from the checkout's sources into
.bench_build/perfbench (a no-op when up to date) and runs one workload; the
last line of its output is the result as one JSON object. --self-test runs
the output checks against corrupted results. --study runs one workload N
times on seeds 1..N and prints, per metric, the median, quartiles,
the spread between the quartiles and the largest spread, each as a share
of the median, next to the bound BENCHMARK.json gives it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "magma_perfbench")


def build():
    """Configure once, then build; compiler output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no program sources (src/) in " + ROOT)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit("run.py: %s failed (exit %d)" % (" ".join(cmd),
                                                  done.returncode))
    return json.loads(lines[-1])


def study(args):
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            for m in json.load(f).get("end_to_end", []):
                bounds[m["name"]] = m["bound"]
    values, shares, correct = {}, [], True
    for seed in range(1, args.runs + 1):
        result = run_once(args.study, seed, args.seconds, args.trace)
        correct = correct and result["correct"]
        shares.append("%d/%d" % (result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("seed %d done: correct=%s failed/attempted=%s" %
              (seed, result["correct"], shares[-1]), flush=True)
    print("%-30s %-10s %14s %14s %14s %8s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "iqr", "range",
           "bound"))
    for name in sorted(values):
        unit, v = values[name]
        med = statistics.median(v)
        q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                     else (v[0], v[0], v[0]))
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(v) - min(v)) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-30s %-10s %14.6g %14.6g %14.6g %8.4f %8.4f %6s" %
              (name, unit, med, q1, q3, iqr, rng,
               "-" if bound is None else "%.2f" % bound))
    print("correct: %s; failed/attempted per run: %s" %
          (correct, ", ".join(shares)))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--study")
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args()
    build()
    if args.self_test:
        sys.exit(subprocess.run([BINARY, "--self-test"], cwd=ROOT).returncode)
    if args.study:
        if args.seconds is None:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        args.trace = args.trace or 0
        study(args)
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    sys.stdout.flush()
    sys.exit(subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
