#!/usr/bin/env python3
"""Runs a workload under several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload select_ssd --runs 10 [--first-seed 1]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the bound BENCHMARK.json gives the metric. A benchmark is
steady when every spread stays well below its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    print(f"\n{'metric':34} {'median':>12} {'iqr/median':>11} {'bound':>7}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of its bound"
        print(f"{name:34} {median:12.5g} {spread:11.4f} {bound if bound else '':>7}{flag}")


if __name__ == "__main__":
    main()
