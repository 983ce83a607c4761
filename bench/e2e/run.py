#!/usr/bin/env python3
"""The benchmark of record: builds bench_e2e from this checkout and runs it.

One run of one workload, printing one JSON result as the last stdout line:

    python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1

With --trace 0 the result holds every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric. `correct` is false when any checked
operation failed or a metric is missing.

Every workload, untraced then traced (bench/e2e/run.sh is this mode):

    python3 bench/e2e/run.py [--seed S] [--smoke] [--out DIR]

writes DIR/<workload>.json, DIR/<workload>.traced.json and
DIR/trace-<workload>.jsonl, prints every metric with its unit, and exits
non-zero on a failed operation, a missing metric, or a trace residual above
5% on a one-shot workload. --smoke runs each workload for about a second.

The build goes to build-e2e/ at the root of the checkout (RelWithDebInfo);
the first run configures and builds it, later runs rebuild incrementally.
Python 3 standard library only.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = "build-e2e"
BINARY = ROOT / BUILD / "bench_e2e"
RUN_TIMEOUT_S = 170
ONE_SHOT = ("suite-oneshot", "verify-final")
MAX_RESIDUAL_PCT = 5.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds bench_e2e; exits 2 if it cannot."""
    needed = [ROOT / "src" / "CMakeLists.txt", ROOT / "bench" / "Suite.cpp",
              ROOT / "bench" / "programs"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        log("run.py: the checkout lacks " + ", ".join(missing) +
            "; bench_e2e builds from the repository's sources")
        sys.exit(2)
    build_dir = ROOT / BUILD
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", "bench/e2e", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("run.py: cmake configure failed")
            sys.exit(2)
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        log("run.py: build failed")
        sys.exit(2)


def run_workload(workload, seed, seconds, traced, trace_out=None):
    """Runs bench_e2e once; returns its JSON result, or None on a crash."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", "--expected=bench/e2e/expected",
           f"--work-dir={BUILD}/run"]
    if traced:
        cmd.append("--traced")
        if trace_out:
            cmd.append(f"--trace-out={trace_out}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: bench_e2e exited with {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run.py: bench_e2e printed no JSON result")
        return None


def required_metrics(bench, traced):
    return [m["name"] for m in bench["per_layer" if traced else "end_to_end"]]


def missing_metrics(result, names):
    metrics = result["metrics"]
    return [n for n in names if n not in metrics
            or not isinstance(metrics[n]["value"], (int, float))
            or not math.isfinite(metrics[n]["value"])]


def driver_result(result, names):
    metrics = {n: {"value": result["metrics"][n]["value"],
                   "unit": result["metrics"][n]["unit"]}
               for n in names if n in result["metrics"]}
    correct = (result["failed"] == 0 and
               not missing_metrics(result, names))
    return {"correct": correct, "attempted": max(1, result["attempted"]),
            "failed": result["failed"], "metrics": metrics}


def run_one(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log(f"run.py: unknown workload {args.workload}; one of {names}")
        return 2
    build()
    traced = args.trace == 1
    result = run_workload(args.workload, args.seed, args.seconds, traced)
    if result is None:
        return 1
    for err in result["errors"]:
        log("failed:", err)
    print(json.dumps(driver_result(result, required_metrics(bench, traced))))
    return 0


def print_metrics(result):
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:<9s} n={m['n']}")


def run_all(args, bench):
    build()
    out = Path(args.out)
    if not out.is_absolute():
        out = ROOT / out
    out.mkdir(parents=True, exist_ok=True)
    seconds = 1 if args.smoke else bench["run_seconds"]
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for traced in (False, True):
            label = f"{name} ({'traced' if traced else 'untraced'})"
            stem = name + (".traced" if traced else "")
            trace_out = os.path.relpath(out / f"trace-{name}.jsonl", ROOT)
            result = run_workload(name, args.seed, seconds, traced,
                                  trace_out)
            if result is None:
                problems.append(f"{label}: no result")
                continue
            with open(out / f"{stem}.json", "w") as f:
                json.dump(result, f, indent=1)
                f.write("\n")
            print(f"{label}: {result['attempted']} checked ops, "
                  f"{result['failed']} failed")
            print_metrics(result)
            if result["failed"]:
                problems.append(f"{label}: {result['failed']} failed ops: "
                                + "; ".join(result["errors"]))
            missing = missing_metrics(result,
                                      required_metrics(bench, traced))
            if missing:
                problems.append(f"{label}: missing " + ", ".join(missing))
            residual = result["metrics"].get("trace.residual_pct")
            if traced and name in ONE_SHOT and residual and \
                    residual["value"] > MAX_RESIDUAL_PCT:
                problems.append(f"{label}: trace residual "
                                f"{residual['value']:.2f}% > "
                                f"{MAX_RESIDUAL_PCT}%")
    print(f"results in {os.path.relpath(out, ROOT)}")
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload (driver mode)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="timed phase length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="about one second per workload")
    p.add_argument("--out", default=f"{BUILD}/results",
                   help="result directory of the all-workload mode")
    args = p.parse_args()
    bench = load_benchmark()
    if args.workload:
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return run_one(args, bench)
    return run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
