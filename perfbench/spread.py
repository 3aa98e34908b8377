#!/usr/bin/env python3
"""Repeats benchmark runs over several seeds and summarizes each metric.

    python3 perfbench/spread.py --workloads corpus_dag,service_mix --seeds 10
    python3 perfbench/spread.py --seeds 10 --save before.json
    python3 perfbench/spread.py --seeds 10 --compare before.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. With
--compare it also prints the change of each median against a saved run
of another commit, as a share of that median, and flags changes for the
worse beyond the bound. Seeds are 1..N unless --first-seed moves them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """The result line of one run, and the run's wall time in seconds."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, done.returncode))
    return json.loads(lines[-1]), wall


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save", help="write every value to this file")
    parser.add_argument("--compare", help="a file written by --save")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = {}
    for workload in args.workloads.split(","):
        per_metric = values.setdefault(workload, {})
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run_once(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print("%s seed %d (%.1f s): %s" % (workload, seed, wall, json.dumps(
                {k: round(v["value"], 6)
                 for k, v in result["metrics"].items()})), flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    base = json.load(open(args.compare)) if args.compare else {}

    worst = True
    for workload, per_metric in values.items():
        print("\n%s" % workload)
        for name, series in per_metric.items():
            median, q1, q3, spread = summarize(series)
            bound = bounds[name]["bound"]
            line = ("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                    "%6.3f (bound %.2f, %s)" %
                    (name, median, q1, q3, spread, bound,
                     "ok" if spread <= bound / 3 or name == "setup_s"
                     else "WIDE"))
            if name in base.get(workload, {}):
                before = statistics.median(base[workload][name])
                change = (median - before) / before
                worse = -change if bounds[name]["better"] == "higher" \
                    else change
                line += "  vs base %+.3f%s" % (
                    change, " WORSE" if worse > bound else "")
                worst &= worse <= bound
            print(line)
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main())
