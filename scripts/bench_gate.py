#!/usr/bin/env python3
"""Perf-trajectory gate: fresh `smrseek bench --json` vs the last committed BENCH_*.json.

Usage:
    python3 scripts/bench_gate.py FRESH.json [--baseline BENCH_N.json]
                                  [--threshold 0.15]

Compares the throughput numbers that matter for trend tracking — ingest
records/s and each config's serial replay records/s — against the
newest committed ``BENCH_<n>.json`` (or an explicit
``--baseline``). Any metric more than ``--threshold`` (default 15%) below
its baseline fails the gate with exit 1 so a perf regression cannot land
silently.

On a 1-CPU host (either side of the comparison) wall-clock numbers are
too noisy for a hard gate, so the script prints a warning and skips with
exit 0.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def newest_baseline() -> Path:
    benches = {}
    for p in REPO.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", p.name)
        if m:
            benches[int(m.group(1))] = p
    if not benches:
        sys.exit("bench_gate: no committed BENCH_*.json to compare against")
    return benches[max(benches)]


def throughputs(doc: dict) -> dict[str, float]:
    """Flattens a bench document to {metric name: records/s}."""
    out = {"ingest": doc["ingest"]["records_per_s"]}
    for cfg in doc["configs"]:
        name = cfg["config"]
        out[f"{name}/serial"] = cfg["serial"]["records_per_s"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", type=Path, help="JSON from a fresh `smrseek bench --json`")
    ap.add_argument("--baseline", type=Path, default=None, help="committed BENCH_*.json (default: newest)")
    ap.add_argument("--threshold", type=float, default=0.15, help="allowed fractional regression (default 0.15)")
    args = ap.parse_args()

    baseline_path = args.baseline or newest_baseline()
    fresh = json.loads(args.fresh.read_text())
    baseline = json.loads(baseline_path.read_text())

    cpus = min(fresh.get("host_cpus", 0), baseline.get("host_cpus", 0))
    if cpus <= 1:
        # Single-CPU wall clock is noise-dominated, so the 15% gate
        # would flap. Trend numbers are
        # still recorded; the gate just does not fail on them.
        print(
            "bench_gate: warning: host has 1 CPU; timings are too noisy "
            "for a regression gate — skipping comparison "
            f"({args.fresh} vs {baseline_path.name})"
        )
        return 0

    fresh_tp = throughputs(fresh)
    base_tp = throughputs(baseline)
    failures = []
    for name in sorted(base_tp):
        if name not in fresh_tp:
            print(f"bench_gate: note: {name} missing from fresh run, skipped")
            continue
        ratio = fresh_tp[name] / base_tp[name]
        verdict = "REGRESSED" if ratio < 1.0 - args.threshold else "ok"
        print(f"bench_gate: {name}: {fresh_tp[name]:.0f} rec/s vs {base_tp[name]:.0f} ({ratio:.2f}x) {verdict}")
        if verdict == "REGRESSED":
            failures.append(name)

    if failures:
        print(
            f"bench_gate: FAIL: {len(failures)} metric(s) more than "
            f"{args.threshold:.0%} below {baseline_path.name}: {', '.join(failures)}"
        )
        return 1
    print(f"bench_gate: ok: no metric regressed >{args.threshold:.0%} vs {baseline_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
