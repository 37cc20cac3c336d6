#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark on the 4-layer test model.

    python3 perfbench/selftest.py

Runs every workload (those in BENCHMARK.json, select_int8_x4 and rag_open)
untraced and traced and checks the result line against the schema: exactly the keys correct/attempted/failed/
metrics, a correct run with no failures, and every end-to-end (untraced) or
per-layer (traced) metric present with its unit. Then runs select_ssd twice
on the same fixed request set and checks that the counts which must repeat
do repeat exactly. Exits nonzero on the first problem.
"""
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py: the build step)

# Counts that are a pure function of the inputs on one serial caller.
REPEATING = ["ssd.bytes_per_request", "engine.candidate_layers", "engine.bytes_streamed",
             "kernel.ops_per_request"]


def invoke(binary, workload, trace, seconds, requests=None, trace_name=None):
    out = run.build_dir() / "selftest"
    command = [str(binary), "--workload", workload, "--seed", "7", "--seconds", str(seconds),
               "--trace", str(trace), "--model", "test", "--ckpt-dir", str(out / "ckpt")]
    if requests is not None:
        command += ["--requests", str(requests)]
    if trace:
        command += ["--trace-out", str(out / (trace_name or f"{workload}.json"))]
    proc = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def check_schema(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True:
        raise SystemExit(f"{label}: incorrect result")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            raise SystemExit(f"{label}: {key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] != 0:
        raise SystemExit(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise SystemExit(f"{label}: missing {missing}, unexpected {extra}, wrong units {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise SystemExit(f"{label}: {name} is not a number")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    # select_int8_x4 and rag_open are runnable but not in BENCHMARK.json;
    # their paths are tested here too.
    gated = [w["name"] for w in spec["workloads"]]
    for workload in gated + [w for w in ("select_int8_x4", "rag_open") if w not in gated]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            check_schema(invoke(binary, workload, trace, seconds=1), expected, label)
            if trace:
                path = run.build_dir() / "selftest" / f"{workload}.json"
                events = json.loads(path.read_text())["traceEvents"]
                if not events:
                    raise SystemExit(f"{label}: empty trace {path}")
            print(f"ok  {label}", flush=True)

    first, second = (invoke(binary, "select_ssd", 1, seconds=4, requests=8,
                            trace_name=f"repeat{i}.json")["metrics"] for i in (1, 2))
    for name in REPEATING:
        if first[name]["value"] != second[name]["value"]:
            raise SystemExit(f"{name} differs between identical runs: "
                             f"{first[name]['value']} vs {second[name]['value']}")
    print("ok  repeated counts: " + ", ".join(f"{n}={first[n]['value']:.6g}" for n in REPEATING))


if __name__ == "__main__":
    main()
