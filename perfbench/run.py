#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload select_ssd --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/cmake (or to
$CARGO_TARGET_DIR/cmake when that is set), synthetic checkpoints to
.bench_build/ckpt and traces to .bench_build/traces. Build output goes to
stderr; the benchmark's own stdout is passed through, so the last line of
stdout is the result object. The exit code is the benchmark's.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures once, then builds the perfbench target. Returns the binary."""
    out = build_dir() / "cmake"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"perfbench: no program sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--ckpt-dir", str(build_dir() / "ckpt")]
    if args.trace:
        trace = build_dir() / "traces" / f"{args.workload}-seed{args.seed}.json"
        command += ["--trace-out", str(trace)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
