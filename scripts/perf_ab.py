#!/usr/bin/env python3
"""Interleaved A/B of two perfbench binaries on the same seeds.

Usage, from anywhere:

    python3 scripts/perf_ab.py --base BASE_BIN --change CHANGE_BIN \\
        --workload table1-matrix,sweep-large --pairs 6 --seconds 20 \\
        [--trace 0] [--first-seed 1]

Both binaries are builds of `perfbench/` (`cargo build --offline --release
--manifest-path perfbench/Cargo.toml`, then `perfbench/target/release/
smrseek-perfbench`), one from each checkout. `--workload` takes one
workload or a comma-separated list. For each of N seeds from
`--first-seed` (default 1; pass one past the seeds used while developing
to re-check a claim on fresh ones) and each workload the two run back to
back, in alternating order, from the repository root,
so slow drift in host speed lands on both sides of a pair; the workloads
interleave within each seed, so a claimed gain on one and the
no-regression check on another come from the same stretch of time. For
each workload, every metric the runs report is printed with both medians,
the base's interquartile spread as a share of its median, the per-pair
ratios change/base with their own interquartile range, and "wins", the
pairs in which the change is better in the direction BENCHMARK.json
declares.

Each end-to-end metric then gets one verdict per workload, against its
bound in BENCHMARK.json:

  gain        at least 9 in 10 pairs better, and the median ratio better
              than 1 by more than the base's interquartile spread;
  regression  the median ratio worse than 1 by more than the bound;
  unresolved  the base's spread wider than the bound, and not every
              pair better;
  neutral     anything else.

Next to each verdict stand the per-pair ratios' interquartile range and
the one-sided sign-test p-value of the win count: the chance of at least
that many wins in that many pairs if either side were equally likely to
win each pair. They do not change the verdict; they show how consistent
the pairs were when the base's own spread is wide (a change that wins
10 of 10 pairs has p = 0.001 whatever that spread).

Each run also reports the host's CPU steal: the share of all CPU time
that /proc/stat's `steal` column gained while it ran, i.e. time the
hypervisor gave this host's virtual CPUs to someone else. A warning is
printed for every run whose steal exceeds 5%, and for a workload whose
base `records_per_s` spans more than x1.5 across seeds: either means
the round ran on a host whose speed moved under it, and its ratios are
suspect. Neither changes a verdict.

This is the repository's performance gate: it exits 1 if any
end-to-end verdict is `regression`, and if any run fails, prints no
result, or reports `failed > 0` or `correct: false`.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# A run whose steal share exceeds this gets a warning.
STEAL_WARN = 0.05
# A base whose records_per_s max/min across seeds exceeds this gets one.
SPAN_WARN = 1.5


def cpu_times():
    """The aggregate `cpu` line of /proc/stat as (total, steal) jiffies,
    or None where it cannot be read. `guest` time is already counted in
    `user`, so the total sums the first eight columns only."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    ticks = [int(x) for x in fields[1:9]]
    return sum(ticks), ticks[7]


def steal_share(before, after):
    """Steal's share of the CPU time between two cpu_times() readings."""
    if before is None or after is None or after[0] <= before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


def fmt_steal(share):
    return "n/a" if share is None else f"{share * 100:.1f}%"


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    before = cpu_times()
    out = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                         timeout=900)
    steal = steal_share(before, cpu_times())
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{binary} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr}")
    result = json.loads(lines[-1])
    if result["failed"] > 0 or not result["correct"]:
        raise RuntimeError(f"{binary} seed {seed}: failed={result['failed']} "
                           f"correct={result['correct']}")
    return {name: m["value"] for name, m in result["metrics"].items()}, steal


def iqr(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values):
    med = statistics.median(values)
    return iqr(values) / med if med else float("inf")


def sign_p(wins, pairs):
    """One-sided sign test: P(at least `wins` of `pairs` fair coin flips)."""
    return sum(math.comb(pairs, k) for k in range(wins, pairs + 1)) / 2 ** pairs


def verdict(higher, bound, base_iqr, ratio_med, wins, pairs):
    """Classifies one end-to-end metric; see the module docstring."""
    gain = ratio_med - 1 if higher else 1 - ratio_med
    if wins >= 0.9 * pairs and gain > base_iqr:
        return "gain"
    if -gain > bound:
        return "regression"
    if base_iqr > bound and wins < pairs:
        return "unresolved"
    return "neutral"


def table(workload, trace, seconds, first_seed, base, change, better,
          bounds):
    pairs = len(base)
    print(f"\n{workload} trace={trace}: {pairs} interleaved pairs, "
          f"seeds {first_seed}-{first_seed + pairs - 1}, "
          f"{seconds} s per run")
    print(f"  {'metric':<36} {'base':>11} {'change':>11} {'base_iqr':>8} "
          f"{'ratio_med':>9} {'ratio_min':>9} {'ratio_max':>9} "
          f"{'ratio_iqr':>9} {'wins':>5}")
    verdicts = []
    for name in base[0]:
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        ratios = [y / x for x, y in zip(b, c) if x]
        higher = better.get(name) == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        rmed = statistics.median(ratios) if ratios else float("nan")
        rmin = min(ratios, default=float("nan"))
        rmax = max(ratios, default=float("nan"))
        riqr = iqr(ratios)
        print(f"  {name:<36} {statistics.median(b):>11.6g} "
              f"{statistics.median(c):>11.6g} {spread(b):>8.3f} "
              f"{rmed:>9.3f} {rmin:>9.3f} {rmax:>9.3f} {riqr:>9.3f} "
              f"{wins:>2}/{len(b):<2}")
        if name in bounds:
            v = verdict(higher, bounds[name], spread(b), rmed, wins, len(b))
            verdicts.append((name, v, riqr, sign_p(wins, len(b))))
    for name, v, riqr, p in verdicts:
        print(f"  verdict {workload} {name}: {v} "
              f"(ratio_iqr {riqr:.3f}, sign p={p:.3g})")
    return [f"{workload} {name}" for name, v, _, _ in verdicts
            if v == "regression"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="perfbench binary A")
    parser.add_argument("--change", required=True, help="perfbench binary B")
    parser.add_argument("--workload", required=True,
                        help="a workload, or a comma-separated list")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the first of the --pairs seeds")
    args = parser.parse_args()
    workloads = [w for w in args.workload.split(",") if w]

    with open(REPO / "BENCHMARK.json") as f:
        bench = json.load(f)
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    base = {w: [] for w in workloads}
    change = {w: [] for w in workloads}
    warnings = []
    try:
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            for workload in workloads:
                order = [("base", args.base), ("change", args.change)]
                if seed % 2 == 0:
                    order.reverse()
                pair, steal = {}, {}
                for side, binary in order:
                    pair[side], steal[side] = run(binary, workload, seed,
                                                  args.seconds, args.trace)
                base[workload].append(pair["base"])
                change[workload].append(pair["change"])
                key = "records_per_s" if args.trace == "0" else None
                note = "" if key is None else (
                    f" {key} base={pair['base'][key]:.6g} "
                    f"change={pair['change'][key]:.6g} "
                    f"ratio={pair['change'][key] / pair['base'][key]:.3f}")
                print(f"seed {seed} {workload} ({order[0][0]} first):{note}"
                      f" steal base={fmt_steal(steal['base'])} "
                      f"change={fmt_steal(steal['change'])}", flush=True)
                for side, share in steal.items():
                    if share is not None and share > STEAL_WARN:
                        warnings.append(
                            f"seed {seed} {workload} {side}: steal "
                            f"{fmt_steal(share)} > {STEAL_WARN:.0%}")
    except RuntimeError as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 1

    regressions = []
    for workload in workloads:
        regressions += table(workload, args.trace, args.seconds,
                             args.first_seed, base[workload],
                             change[workload], better, bounds)
        rates = [r["records_per_s"] for r in base[workload]
                 if r.get("records_per_s")]
        if rates and max(rates) / min(rates) > SPAN_WARN:
            warnings.append(
                f"{workload}: base records_per_s spans x"
                f"{max(rates) / min(rates):.2f} across seeds "
                f"({min(rates):.6g} to {max(rates):.6g}) > x{SPAN_WARN}")
    for w in warnings:
        print(f"WARNING: {w}: host speed moved during this round")
    if regressions:
        print(f"perf_ab: FAIL: regression in {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
