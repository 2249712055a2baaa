#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload quote-mix --seeds 1-10 --seconds 20

For every metric: the median of the runs and the distance between the
first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Add --trace 1 to collect the per-layer metrics instead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    failed_shares = set()
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if out.returncode != 0:
            print("seed %d: exit %d" % (seed, out.returncode))
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed_shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: attempted %d failed %d  %s" %
              (seed, result["attempted"], result["failed"],
               " ".join("%s=%.4g" % (k, v["value"])
                        for k, v in result["metrics"].items())))
    print("failed share(s): %s" % sorted(failed_shares))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print("%-32s median %-12.6g spread %.3f bound %s%s" %
              (name, med, spread, bound, flag))


if __name__ == "__main__":
    main()
