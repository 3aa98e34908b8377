#!/usr/bin/env python3
"""Diffs a fresh bench run against its committed trajectory. Stdlib only.

usage: check_bench_pins.py PINNED.json FRESH.json --key FIELD [--key ...]
           --metric NAME [--metric ...] [--max-abs FIELD=LIMIT ...]

PINNED.json is a committed BENCH_<suite>.json (rows under "results");
FRESH.json is the bench binary's --benchmark_format=json output (a list
of rows). Rows are matched on the --key fields; fresh rows with no pinned
counterpart (beyond the committed sweep) are skipped.

Each --metric is a time in ms. A row fails when it is more than
MAX_RATIO times its pin. CI's fresh rows are single samples, and samples
of a few ms move by up to 2x between runs on one host, so pins under
FLOOR_MS are compared against FLOOR_MS instead.
Each --max-abs FIELD=LIMIT fails a matched row whose |FIELD| exceeds
LIMIT (e.g. a cross-check residual).

Prints one line per compared metric; exit code 1 lists the failures.
"""

import argparse
import json
import sys

MAX_RATIO = 2.0
FLOOR_MS = 5.0


def parse_limit(text):
    field, _, limit = text.partition("=")
    if not field or not limit:
        raise argparse.ArgumentTypeError(f"expected FIELD=LIMIT, got {text!r}")
    return field, float(limit)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pinned")
    parser.add_argument("fresh")
    parser.add_argument("--key", action="append", required=True)
    parser.add_argument("--metric", action="append", required=True)
    parser.add_argument("--max-abs", type=parse_limit, action="append",
                        default=[])
    args = parser.parse_args()

    with open(args.pinned) as f:
        pinned = json.load(f)["results"]
    with open(args.fresh) as f:
        fresh = json.load(f)
    baseline = {tuple(r[k] for k in args.key): r for r in pinned}

    failures = []
    for row in fresh:
        key = tuple(row[k] for k in args.key)
        if key not in baseline:
            continue
        label = " ".join(f"{value!s:>10}" for value in key)
        for metric in args.metric:
            pin = max(baseline[key][metric], FLOOR_MS)
            got = row[metric]
            ratio = got / pin
            verdict = "FAIL" if ratio > MAX_RATIO else "ok"
            print(f"{label} {metric:>8} {got:9.3f} ms vs pinned "
                  f"{pin:9.3f} ms ({ratio:5.2f}x) {verdict}")
            if ratio > MAX_RATIO:
                failures.append((key, metric))
        for field, limit in args.max_abs:
            if abs(row[field]) > limit:
                print(f"{label} {field} {row[field]:.3e} exceeds {limit:g}")
                failures.append((key, field))
    if failures:
        sys.exit(f"perf smoke regression: {failures}")


if __name__ == "__main__":
    main()
