#!/usr/bin/env python3
"""Records, compares and checks points of the performance ledger.

    python3 tools/ledger/ledger.py --out tools/ledger/BENCH_32.json \
        --compare tools/ledger/BENCH_31.json
    python3 tools/ledger/ledger.py --tree ../other-checkout --commit 180aa0d \
        --out tools/ledger/BENCH_30.json
    python3 tools/ledger/ledger.py --compare tools/ledger/BENCH_31.json \
        tools/ledger/BENCH_32.json --expect-changed bench_scenarios_sim_json_sha256
    python3 tools/ledger/ledger.py --check tools/ledger/BENCH_*.json

The point is a JSON object:

    {"commit": ..., "dirty": false, "host": {cores, cpu, build_type, compiler},
     "deterministic": {"bench_scenarios_sim_json_sha256": ...,
                       "bench_quant_deterministic_sha256": ...},
     "wall": {"seeds": [...], "seconds": ..., "workloads": {
         <workload>: {<metric>: {"median", "q1", "q3", "iqr", "unit"}}},
         "kernels": {<benchmark>: {"median", "q1", "q3", "iqr", "unit"}}}}

A point measured on a tree whose tracked files differ from HEAD (a change
recorded before it is committed) holds {"parent": HEAD, "dirty": true} in
place of "commit": it measures an uncommitted change on that parent, not the
parent itself.

*deterministic* holds fields that repeat exactly on any host: the sha256 of
`bench_scenarios --sim --json` and of `bench_quant --deterministic
--models=test-decoder,Qwen3-Reranker-0.6B` (which prints scores only), built
in Release under <tree>/.ledger_build (or in an existing build tree given
with --build).
*wall* holds the median and interquartile range, over the seeds, of every
end-to-end metric BENCHMARK.json gates, for each of its workloads. Each run
is `python3 perfbench/run.py --workload W --seed S --seconds T` in the tree,
with T the benchmark's `run_seconds`, which builds perfbench from the tree's
own sources; the host fields come from the provenance line that run prints.
A run that reports an incorrect selection or exits nonzero fails the ledger.
*wall.kernels* holds the same summary, in ms over KERNEL_REPETITIONS runs,
of bench_kernels' fp32 `BM_LayerForward` cases (16 × 64 unshared and
rag_closed's 16 × 40 with an 11-token shared prefix, at 1 and 4 threads);
it is left out when the tree's bench_kernels has no such case or cannot be
built (google-benchmark missing).

--compare PREV prints, per workload, each gated metric's median in PREV and
in the current point (the one just recorded with --out, or the file given
after it) and the relative delta, flagging moves over 10%, then the same for
the kernels. A field the current point has and PREV lacks is reported as
new. It exits 1 when a deterministic field differs, unless that field is
named with --expect-changed. --check validates the schema of each file
given and exits 1 on the first file that does not hold; it runs nothing.
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


def git_identity(tree):
    """The point's identity fields: the tree's HEAD as "commit", or as "parent"
    with "dirty" set when tracked files differ from it; None outside git."""
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        changed = subprocess.run(["git", "-C", str(tree), "status", "--porcelain",
                                  "--untracked-files=no"],
                                 capture_output=True, text=True, check=True).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return None
    return {"parent": head, "dirty": True} if changed else {"commit": head, "dirty": False}


def identity(point):
    """How a point names what it measured."""
    if point["dirty"]:
        return f"uncommitted change on {point['parent']}"
    return point["commit"]


def build_targets(tree, build, targets, check=True):
    """Configures the Release build tree once and builds `targets` in it;
    returns whether the build succeeded."""
    if not (build / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(tree), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release",
                        "-DPRISM_BUILD_EXAMPLES=OFF"], stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    proc = subprocess.run(["cmake", "--build", str(build), "--target", *targets, "-j", jobs],
                          stdout=sys.stderr, check=check)
    return proc.returncode == 0


def sim_sha256(tree, build):
    """Hashes the tree's `bench_scenarios --sim --json` output."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "sim.json"
        subprocess.run([str(build / "bench" / "bench_scenarios"), "--sim", f"--json={out}"],
                       stdout=subprocess.DEVNULL, cwd=tree, check=True)
        return hashlib.sha256(out.read_bytes()).hexdigest()


def quant_sha256(tree, build):
    """Hashes the tree's `bench_quant --deterministic` output for the test decoder
    and the 0.6B proxy: scores only, so it moves exactly when a score does."""
    proc = subprocess.run([str(build / "bench" / "bench_quant"), "--deterministic",
                           "--models=test-decoder,Qwen3-Reranker-0.6B"],
                          capture_output=True, cwd=tree, check=True)
    return hashlib.sha256(proc.stdout).hexdigest()


# bench_kernels' fp32 layer steps: 16 × 64 unshared and 16 × 40 with an
# 11-token shared prefix, at 1 and 4 threads.
LAYER_FORWARD_FILTER = "^BM_LayerForward/tier:0/"
KERNEL_REPETITIONS = 10
TIME_UNIT_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def layer_forward(tree, build):
    """The median and quartiles, in ms over KERNEL_REPETITIONS runs, of each
    BM_LayerForward case the filter selects; {} when there is none."""
    if not build_targets(tree, build, ["bench_kernels"], check=False):
        print("ledger: bench_kernels did not build; no kernels field", file=sys.stderr)
        return {}
    proc = subprocess.run([str(build / "bench" / "bench_kernels"),
                           f"--benchmark_filter={LAYER_FORWARD_FILTER}",
                           f"--benchmark_repetitions={KERNEL_REPETITIONS}",
                           "--benchmark_format=json"],
                          capture_output=True, text=True, cwd=tree, check=True)
    samples = {}
    for run in json.loads(proc.stdout)["benchmarks"]:
        if run.get("run_type", "iteration") == "iteration":
            ms = run["real_time"] * TIME_UNIT_MS[run["time_unit"]]
            samples.setdefault(run["run_name"], []).append(ms)
    return {name: {**summarize(values), "unit": "ms"} for name, values in samples.items()}


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


HOST_FIELDS = ("cores", "cpu", "build_type", "compiler")
SUMMARY_FIELDS = ("median", "q1", "q3", "iqr")
WALL_WARN = 0.10  # A median move beyond this fraction is flagged.


def summary_errors(where, summary):
    """What keeps `summary` from being a {median, q1, q3, iqr, unit} summary."""
    if not isinstance(summary, dict) or set(summary) != {*SUMMARY_FIELDS, "unit"}:
        return [f"{where}: want exactly {[*SUMMARY_FIELDS, 'unit']}"]
    if not all(isinstance(summary[field], (int, float)) for field in SUMMARY_FIELDS):
        return [f"{where}: a summary field is not a number"]
    if not summary["q1"] <= summary["median"] <= summary["q3"]:
        return [f"{where}: median outside [q1, q3]"]
    if abs(summary["iqr"] - (summary["q3"] - summary["q1"])) > 1e-9 * max(
            1.0, abs(summary["q3"])):
        return [f"{where}: iqr is not q3 - q1"]
    return []


def schema_errors(point):
    """What keeps `point` from being a ledger point; empty when it is one."""
    if not isinstance(point, dict):
        return ["not a JSON object"]
    errors = []
    dirty = point.get("dirty")
    if not isinstance(dirty, bool):
        return ["dirty: not a boolean"]
    name = "parent" if dirty else "commit"
    keys = {name, "dirty", "host", "deterministic", "wall"}
    if set(point) != keys:
        errors.append(f"top-level keys {sorted(point)}, want {sorted(keys)}")
        return errors
    if not isinstance(point[name], str) or not point[name]:
        errors.append(f"{name}: not a non-empty string")
    host = point["host"]
    if not isinstance(host, dict) or set(host) != set(HOST_FIELDS):
        errors.append(f"host: want exactly {list(HOST_FIELDS)}")
    elif not isinstance(host["cores"], int) or host["cores"] < 1:
        errors.append("host.cores: not a positive integer")
    deterministic = point["deterministic"]
    if not isinstance(deterministic, dict) or not deterministic:
        errors.append("deterministic: not a non-empty object")
    else:
        for name, value in deterministic.items():
            if name.endswith("_sha256") and not (
                    isinstance(value, str) and len(value) == 64
                    and all(c in "0123456789abcdef" for c in value)):
                errors.append(f"deterministic.{name}: not a sha256 hex digest")
    wall = point["wall"]
    required = {"seeds", "seconds", "workloads"}
    if not isinstance(wall, dict) or not required <= set(wall) <= {*required, "kernels"}:
        errors.append("wall: want seeds, seconds, workloads and optionally kernels")
        return errors
    kernels = wall.get("kernels", {})
    if not isinstance(kernels, dict):
        errors.append("wall.kernels: not an object")
    else:
        for name, summary in kernels.items():
            errors += summary_errors(f"wall.kernels.{name}", summary)
    seeds = wall["seeds"]
    if (not isinstance(seeds, list) or len(seeds) < 2
            or not all(isinstance(seed, int) for seed in seeds)):
        errors.append("wall.seeds: want a list of at least 2 integers")
    if not isinstance(wall["seconds"], (int, float)) or wall["seconds"] <= 0:
        errors.append("wall.seconds: not a positive number")
    workloads = wall["workloads"]
    if not isinstance(workloads, dict) or not workloads:
        return errors + ["wall.workloads: not a non-empty object"]
    for workload, metrics in workloads.items():
        if not isinstance(metrics, dict) or not metrics:
            errors.append(f"wall.workloads.{workload}: not a non-empty object")
            continue
        for name, summary in metrics.items():
            errors += summary_errors(f"wall.workloads.{workload}.{name}", summary)
    return errors


def load_point(path):
    """Reads and validates one point; exits naming the file when it is bad."""
    try:
        point = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        raise SystemExit(f"ledger: {path}: {err}")
    errors = schema_errors(point)
    if errors:
        raise SystemExit(f"ledger: {path}: " + "; ".join(errors))
    return point


def delta_line(name, before, after, lower_is_better):
    """One compared summary: PREV's median, this point's, and the relative move;
    "new" when PREV has no such field."""
    if before is None:
        return f"    {name:22} {'new':>12} -> {after['median']:<12.6g}"
    old, new = before["median"], after["median"]
    if new == old:
        delta, verdict = 0.0, "flat"
    else:
        delta = (new - old) / abs(old) if old else float("inf")
        verdict = "better" if (new < old) == lower_is_better else "worse"
    flag = f"  WARN: over {WALL_WARN:.0%}" if abs(delta) > WALL_WARN else ""
    return (f"    {name:22} {old:12.6g} -> {new:<12.6g} {delta:+8.1%}  "
            f"{verdict:6} (prev IQR {before['iqr']:.3g}){flag}")


def compare(prev, cur, spec, expect_changed):
    """Prints the deltas from `prev` to `cur`; returns the exit status."""
    status = 0
    print(f"ledger: {identity(prev)} -> {identity(cur)}")
    if prev["host"] != cur["host"]:
        print(f"  host differs: {prev['host']} -> {cur['host']}; wall deltas cross hosts")
    print("deterministic:")
    for name in sorted(set(prev["deterministic"]) | set(cur["deterministic"])):
        before = prev["deterministic"].get(name)
        after = cur["deterministic"].get(name)
        if before == after:
            print(f"  {name}: same ({str(after)[:12]})")
        elif before is None:
            print(f"  {name}: new ({str(after)[:12]})")
        elif name in expect_changed:
            print(f"  {name}: changed, expected ({str(before)[:12]} -> {str(after)[:12]})")
        else:
            print(f"  {name}: CHANGED ({str(before)[:12]} -> {str(after)[:12]}); "
                  f"name it with --expect-changed if intended")
            status = 1
    for name in expect_changed:
        if prev["deterministic"].get(name) == cur["deterministic"].get(name):
            print(f"  {name}: named with --expect-changed but did not change")
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    print(f"wall (median over seeds {prev['wall']['seeds']} -> {cur['wall']['seeds']}):")
    for workload in sorted(cur["wall"]["workloads"]):
        before = prev["wall"]["workloads"].get(workload, {})
        after = cur["wall"]["workloads"][workload]
        print(f"  {workload}" + ("" if before else " (new)"))
        for name in [name for name in better if name in after]:
            print(delta_line(name, before.get(name), after[name], better[name] == "lower"))
    kernels = cur["wall"].get("kernels", {})
    if kernels:
        print("kernels (ms, median over repetitions):")
        for name in sorted(kernels):
            print(delta_line(name, prev["wall"].get("kernels", {}).get(name), kernels[name],
                             lower_is_better=True))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="record a point and write it here")
    parser.add_argument("--compare", metavar="PREV", help="print the deltas from this point")
    parser.add_argument("point", nargs="?",
                        help="with --compare and no --out: the point to compare")
    parser.add_argument("--expect-changed", action="append", default=[], metavar="FIELD",
                        help="a deterministic field this change is meant to move")
    parser.add_argument("--check", nargs="+", metavar="FILE", help="validate these points")
    parser.add_argument("--tree", default=str(ROOT), help="checkout to measure")
    parser.add_argument("--commit", help="commit id, when the tree is not a git checkout")
    parser.add_argument("--seeds", type=int, default=5, help="perfbench seeds 1..N")
    parser.add_argument("--build", help="CMake build tree for bench_scenarios "
                        "(default <tree>/.ledger_build)")
    args = parser.parse_args()

    if args.check:
        for path in args.check:
            print(f"ledger: {path}: {identity(load_point(path))}")
        print(f"ledger: {len(args.check)} point(s) valid")
        return 0
    if not args.out and not (args.compare and args.point):
        parser.error("give --out, --compare PREV POINT, or --check FILE...")
    if args.out and args.point:
        parser.error("a point to compare is given either by --out or as a file, not both")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prev = load_point(args.compare) if args.compare else None
    if args.point:
        return compare(prev, load_point(args.point), spec, args.expect_changed)

    tree = Path(args.tree).resolve()
    ident = {"commit": args.commit, "dirty": False} if args.commit else git_identity(tree)
    if ident is None:
        raise SystemExit("ledger: --tree is not a git checkout; pass --commit")
    gated = [metric["name"] for metric in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    if len(seeds) < 2:
        raise SystemExit("ledger: quartiles need at least 2 seeds")

    build = Path(args.build).resolve() if args.build else tree / ".ledger_build"
    build_targets(tree, build, ["bench_scenarios", "bench_quant"])
    deterministic = {"bench_scenarios_sim_json_sha256": sim_sha256(tree, build),
                     "bench_quant_deterministic_sha256": quant_sha256(tree, build)}
    kernels = layer_forward(tree, build)
    host = None
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        samples = {name: [] for name in gated}
        units = {}
        for seed in seeds:
            provenance, result = perfbench(tree, workload, seed, seconds)
            host = host or {key: provenance[key] for key in HOST_FIELDS}
            for name in gated:
                samples[name].append(result["metrics"][name]["value"])
                units[name] = result["metrics"][name]["unit"]
            print(f"ledger: {workload} seed {seed} done", file=sys.stderr)
        workloads[workload] = {name: {**summarize(values), "unit": units[name]}
                               for name, values in samples.items()}

    wall = {"seeds": seeds, "seconds": seconds, "workloads": workloads}
    if kernels:
        wall["kernels"] = kernels
    point = {**ident, "host": host, "deterministic": deterministic, "wall": wall}
    Path(args.out).write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    return compare(prev, point, spec, args.expect_changed) if prev else 0


if __name__ == "__main__":
    sys.exit(main())
