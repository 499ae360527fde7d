#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload scan_serve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (the library sources
from src/ plus the benchmark program) into .bench_build/; later calls
rebuild incrementally. The program prints a host line, a diagnostics line
and a result line; this script checks the result's metric names and
units against BENCHMARK.json and prints the result as its last line.
A traced run (--trace 1) reports every per-layer metric: a layer the
workload bypasses reads 0. Traced runs also write
.bench_out/<workload>.trace.json (Chrome/Perfetto) and
.bench_out/<workload>.layers.json (per-layer self times).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = Path(".bench_build")
OUT_DIR = Path(".bench_out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the library sources (src/) are missing; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = BUILD_DIR / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_once(binary, spec, workload, seed, seconds, trace, smoke, sha):
    if workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {workload!r}")
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT_DIR), "--git-sha", sha]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail(f"{workload}: metric {name} ({m['unit']}) is not a "
                 f"{group} metric of BENCHMARK.json")
    missing = sorted(set(units) - set(metrics))
    if missing and not trace:
        fail(f"{workload}: end-to-end metrics missing: {missing}")
    for name in missing:
        metrics[name] = {"value": 0.0, "unit": units[name]}
    result["metrics"] = dict(sorted(metrics.items()))
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at toy size, traced and untraced")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")

    spec = load_spec()
    binary = build()
    sha = git_sha()

    if args.smoke:
        ok = True
        for w in spec["workloads"]:
            for trace in (0, 1):
                _, result = run_once(binary, spec, w["name"], args.seed, 2.0,
                                     trace, True, sha)
                ok = ok and result["correct"] and result["failed"] == 0
                print(f"smoke {w['name']} trace={trace}: "
                      f"correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']} "
                      f"metrics={len(result['metrics'])}")
        print(json.dumps({"smoke_ok": ok}))
        sys.exit(0 if ok else 1)

    extra, result = run_once(binary, spec, args.workload, args.seed,
                             args.seconds, args.trace, False, sha)
    for line in extra:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
