#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload sweep-large --seeds 1-10 [--trace 0]

For every end-to-end metric (or per-layer metric with --trace 1) it prints
the median, the quartiles as Python's statistics.quantiles(n=4) gives
them, and the interquartile distance as a share of the median, next to
the metric's bound from BENCHMARK.json. Each run is a fresh process
started with the command BENCHMARK.json names.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    table = bench["end_to_end" if args.trace == "0" else "per_layer"]
    bounds = {m["name"]: m.get("bound") for m in table}

    values = {name: [] for name in bounds}
    failed = 0
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in values), flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} runs, {failed} failed operations")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        verdict = "" if bound is None else (
            f" bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}")
        print(f"  {name:<36} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
