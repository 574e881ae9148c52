#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload socket-storm --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload city-sparse --seed 1 --seconds 2 --trace 1 --smoke

The first call configures and builds ``perfbench`` (and the library it
links) in ``.bench_build/`` under the repository root; later calls rebuild
incrementally.  The binary prints a human-readable report and then one JSON
line; this script passes the report through, checks the metric names
against ``BENCHMARK.json`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``), validates a traced run's Chrome trace with
``tools/trace_summary.py``, and prints the JSON line last.

Exit status: 0 when every correctness check passed, 1 when one failed, 2
when the benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally.  Returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("the library sources (CMakeLists.txt, src/) are not next to perfbench/")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]], [w["name"] for w in spec["workloads"]]


def run_one(workload, seed, seconds, trace, smoke):
    """Run one workload; returns (result dict, exit code)."""
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", RESULTS, "--git-sha", git_sha()]
    if smoke:
        cmd.append("--smoke")
    trace_path = os.path.join(RESULTS, f"trace-{workload}.json")
    if trace and os.path.exists(trace_path):
        os.remove(trace_path)  # never validate a previous run's trace
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, 2
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: no result line (exit {proc.returncode})")
        return None, 2

    failures = []
    if trace:
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "trace_summary.py"),
             trace_path, "--require-category", "bench"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print("  trace_summary.py: " + check.stdout.strip().replace("\n", "\n  "))
        if check.returncode != 0:
            failures.append("trace_summary.py rejected the trace")
    names, _ = declared_metrics(trace)
    if result.get("correct"):
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            failures.append("metrics missing: " + ", ".join(missing))
        result["metrics"] = {n: result["metrics"][n] for n in names
                             if n in result["metrics"]}
    for f in failures:
        log(f"{workload}: CHECK FAILED: {f}")
    if failures:
        result = {"correct": False, "attempted": result["attempted"],
                  "failed": result["failed"] + len(failures), "metrics": {}}
    code = 0 if result["correct"] and proc.returncode == 0 else 1
    return result, code


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2
    _, workloads = declared_metrics(args.trace)
    if args.workload != "all":
        if args.workload not in workloads:
            log(f"unknown workload '{args.workload}' (have {', '.join(workloads)})")
            return 2
        result, code = run_one(args.workload, args.seed, args.seconds,
                               args.trace, args.smoke)
        if result is None:
            return code
        print(json.dumps(result), flush=True)
        return code

    # Every workload in turn, then one table of medians.
    summary, worst = {}, 0
    for w in workloads:
        result, code = run_one(w, args.seed, args.seconds, args.trace, args.smoke)
        worst = max(worst, code)
        summary[w] = result
    print(f"\nsummary (seed {args.seed}, {args.seconds:g} s per workload)")
    for w, result in summary.items():
        if result is None or not result["correct"]:
            print(f"  {w}: FAILED")
            continue
        rec_path = os.path.join(
            RESULTS, f"record-{w}-seed{args.seed}-trace{args.trace}.json")
        with open(rec_path) as f:
            rec = json.load(f)["metrics"]
        for name in result["metrics"]:
            m = rec[name]
            print(f"  {w:13s} {name:34s} {m['unit']:6s} {m['median']:14.6g}"
                  f"  spread {m['spread']:.4f}  samples {m['samples']}")
    ok = [r for r in summary.values() if r is not None]
    print(json.dumps({
        "correct": worst == 0,
        "attempted": sum(r["attempted"] for r in ok) or 1,
        "failed": sum(r["failed"] for r in ok),
        "metrics": {},
    }), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
