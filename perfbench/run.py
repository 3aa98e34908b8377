#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload corpus_dag --seed 1 --seconds 15 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt: the library sources, wfmsd
and the perfbench binary) into .bench_build/ under the repository root,
then runs the workload in its own process. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. Exit status: 0 when every operation was correct, 1 on any failed
operation or oracle mismatch, 2 when the benchmark cannot build or run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The library thread-pool lane count. With one lane every pool task runs
# inline on its caller, so an operation's thread CPU time is its time on a
# dedicated core (see harness.h), and no operation waits for a straggler
# lane whose core the hypervisor lent to another guest.
LANES = 1
CHILD_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail_setup(message):
    log("perfbench: " + message)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail_setup("cannot read BENCHMARK.json: %s" % err)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    for needed in ("src/common/json.h", "tools/wfmsd.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail_setup("library sources missing (%s); run from a full "
                       "checkout" % needed)
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            fail_setup("build failed: " + " ".join(step))
    return out


def git_stamp():
    """Commit and dirty flag when the checkout is a git work tree."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return "unknown", None
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    # For the benchmark's own tests.
    parser.add_argument("--tiny", action="store_true",
                        help="a few small operations per workload")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one output before the oracle checks")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail_setup("unknown workload %r (one of %s)" %
                   (args.workload, ", ".join(names)))
    traced = args.trace == "1"
    wanted = spec["per_layer" if traced else "end_to_end"]

    out = build()
    nproc = len(os.sched_getaffinity(0))
    lanes = LANES
    sha, dirty = git_stamp()
    trace_out = os.path.join(out, "traces",
                             "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--lanes", str(lanes),
               "--wfmsd", os.path.join(out, "wfmsd"),
               "--trace-out", trace_out]
    if args.tiny:
        command.append("--tiny")
    if args.inject_wrong:
        command.append("--inject-wrong")
    env = dict(os.environ, WFMS_NUM_THREADS=str(lanes))
    # Own process group, so a timeout also stops the daemon it started.
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, env=env, cwd=ROOT,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail_setup("workload %s timed out" % args.workload)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if child.returncode not in (0, 1) or not lines:
        fail_setup("workload %s exited with %d" %
                   (args.workload, child.returncode))
    result = json.loads(lines[-1])

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if attempted < 1:
        fail_setup("workload %s attempted no operation: %s" %
                   (args.workload, "; ".join(result.get("errors", []))))
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(expected):
        fail_setup("metric names differ from BENCHMARK.json: missing %s, "
                   "extra %s" % (sorted(set(expected) - set(metrics)),
                                 sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail_setup("metric %s has unit %r, BENCHMARK.json says %r" %
                       (name, metrics[name]["unit"], unit))

    correct = bool(result["correct"]) and child.returncode == 0
    context = dict(result.get("context", {}))
    context.update({"git_sha": sha, "git_dirty": dirty, "nproc": nproc,
                    "lanes": lanes, "seed": args.seed,
                    "seconds": args.seconds})
    print("perfbench %s (%s run): %s" %
          (args.workload, "traced" if traced else "untraced",
           json.dumps(context, sort_keys=True)))
    print("  %-32s %s" % ("fail_ratio", "%d/%d = %.6g" %
                          (failed, attempted,
                           failed / attempted if attempted else 0.0)))
    for name in expected:
        m = metrics[name]
        print("  %-32s %.6g %s%s" % (name, m["value"], m["unit"],
                                     "  (%s)" % m["note"] if "note" in m
                                     else ""))
    for error in result.get("errors", []):
        print("  error: " + error)
    print("  details: " + json.dumps(result.get("details", {}),
                                     sort_keys=True))
    if traced:
        print("  spans: " + trace_out)
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]}
                    for name in expected},
    }
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
