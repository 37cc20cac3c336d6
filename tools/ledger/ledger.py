#!/usr/bin/env python3
"""Records one point of the performance ledger for a checkout.

    python3 tools/ledger/ledger.py --out tools/ledger/BENCH_31.json
    python3 tools/ledger/ledger.py --tree ../other-checkout --commit 180aa0d \\
        --out tools/ledger/BENCH_30.json

The point is a JSON object:

    {"commit": ..., "host": {cores, cpu, build_type, compiler},
     "deterministic": {"bench_scenarios_sim_json_sha256": ...},
     "wall": {"seeds": [...], "seconds": ..., "workloads": {
         <workload>: {<metric>: {"median", "q1", "q3", "iqr", "unit"}}}}}

*deterministic* holds fields that repeat exactly on any host: the sha256 of
`bench_scenarios --sim --json`, built in Release under <tree>/.ledger_build
(or in an existing build tree given with --build).
*wall* holds the median and interquartile range, over the seeds, of every
end-to-end metric BENCHMARK.json gates, for each of its workloads. Each run
is `python3 perfbench/run.py --workload W --seed S --seconds T` in the tree,
with T the benchmark's `run_seconds`, which builds perfbench from the tree's
own sources; the host fields come from the provenance line that run prints.
A run that reports an incorrect selection or exits nonzero fails the ledger.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def git_commit(tree):
    """HEAD of the tree, suffixed "-dirty" when tracked files differ from it."""
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        changed = subprocess.run(["git", "-C", str(tree), "status", "--porcelain",
                                  "--untracked-files=no"],
                                 capture_output=True, text=True, check=True).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return None
    return head + "-dirty" if changed else head


def sim_sha256(tree, build):
    """Builds bench_scenarios in the tree and hashes its --sim --json output."""
    if not (build / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(tree), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release",
                        "-DPRISM_BUILD_EXAMPLES=OFF"], stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build), "--target", "bench_scenarios", "-j", jobs],
                   stdout=sys.stderr, check=True)
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "sim.json"
        subprocess.run([str(build / "bench" / "bench_scenarios"), "--sim", f"--json={out}"],
                       stdout=subprocess.DEVNULL, cwd=tree, check=True)
        return hashlib.sha256(out.read_bytes()).hexdigest()


def perfbench(tree, workload, seed, seconds):
    """One perfbench run; returns (provenance, result) from its last two lines."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"ledger: {workload} seed {seed} failed (exit {proc.returncode})")
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"ledger: {workload} seed {seed} served an incorrect selection")
    return provenance, result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the point")
    parser.add_argument("--tree", default=str(ROOT), help="checkout to measure")
    parser.add_argument("--commit", help="commit id, when the tree is not a git checkout")
    parser.add_argument("--seeds", type=int, default=5, help="perfbench seeds 1..N")
    parser.add_argument("--build", help="CMake build tree for bench_scenarios "
                        "(default <tree>/.ledger_build)")
    args = parser.parse_args()

    tree = Path(args.tree).resolve()
    commit = args.commit or git_commit(tree)
    if commit is None:
        raise SystemExit("ledger: --tree is not a git checkout; pass --commit")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [metric["name"] for metric in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    if len(seeds) < 2:
        raise SystemExit("ledger: quartiles need at least 2 seeds")

    build = Path(args.build).resolve() if args.build else tree / ".ledger_build"
    deterministic = {"bench_scenarios_sim_json_sha256": sim_sha256(tree, build)}
    host = None
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        samples = {name: [] for name in gated}
        units = {}
        for seed in seeds:
            provenance, result = perfbench(tree, workload, seed, seconds)
            host = host or {key: provenance[key]
                            for key in ("cores", "cpu", "build_type", "compiler")}
            for name in gated:
                samples[name].append(result["metrics"][name]["value"])
                units[name] = result["metrics"][name]["unit"]
            print(f"ledger: {workload} seed {seed} done", file=sys.stderr)
        workloads[workload] = {name: {**summarize(values), "unit": units[name]}
                               for name, values in samples.items()}

    point = {"commit": commit, "host": host, "deterministic": deterministic,
             "wall": {"seeds": seeds, "seconds": seconds, "workloads": workloads}}
    Path(args.out).write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
