#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or measures the spread of one set.

    python3 bench/e2e/compare.py PARENT_DIR... -- CHANGE_DIR...
    python3 bench/e2e/compare.py --noise DIR... [--holdout DIR] [--json FILE]

Each DIR is a result directory written by `bench/e2e/run.sh --out=DIR` and
holds <workload>.json. The metrics, their good direction and their bounds
come from BENCHMARK.json.

Compare mode prints, for each workload and end-to-end metric, each side's
median and IQR (the distance between the first and third quartile), the
change of the medians, and a verdict:
  within bound  the change is no worse than the bound allows;
  regressed     the change is worse than the parent by more than the bound;
  unresolved    a side's spread (IQR / median) is wider than the bound, so
                the runs cannot tell, unless every change run reads better
                than every parent run.
It exits 1 when any pairing regressed.

Noise mode prints each metric's median and spread over the given runs and,
with --holdout, how far the holdout-seed run lies from that median; --json
writes the same as a record. Python 3 standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(dirs, workload):
    values = {}
    for d in dirs:
        path = Path(d) / f"{workload}.json"
        if not path.exists():
            continue
        with open(path) as f:
            result = json.load(f)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def median_iqr(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1


def share(part, whole):
    return part / whole if whole else 0.0


def compare(bench, parent_dirs, change_dirs):
    regressed = 0
    header = (f"{'workload':14s} {'metric':18s} {'parent med':>12s} "
              f"{'iqr':>9s} {'change med':>12s} {'iqr':>9s} {'delta':>8s} "
              f"{'bound':>6s}  verdict")
    print(header)
    for w in bench["workloads"]:
        a_all, b_all = load(parent_dirs, w["name"]), load(change_dirs,
                                                          w["name"])
        for m in bench["end_to_end"]:
            a, b = a_all.get(m["name"]), b_all.get(m["name"])
            if not a or not b:
                print(f"{w['name']:14s} {m['name']:18s} missing")
                continue
            med_a, iqr_a = median_iqr(a)
            med_b, iqr_b = median_iqr(b)
            delta = share(med_b - med_a, med_a)
            worse = delta if m["better"] == "lower" else -delta
            spread = max(share(iqr_a, med_a), share(iqr_b, med_b))
            if m["better"] == "lower":
                all_better = max(b) < min(a)
            else:
                all_better = min(b) > max(a)
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "within bound"
            print(f"{w['name']:14s} {m['name']:18s} {med_a:12.5g} "
                  f"{iqr_a:9.3g} {med_b:12.5g} {iqr_b:9.3g} "
                  f"{100 * delta:+7.2f}% {100 * m['bound']:5.1f}%  {verdict}")
    return 1 if regressed else 0


def noise(bench, dirs, holdout, json_out):
    record = {"runs": len(dirs), "workloads": {}}
    print(f"{'workload':14s} {'metric':18s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s} {'holdout':>9s}")
    for w in bench["workloads"]:
        values = load(dirs, w["name"])
        held = load([holdout], w["name"]) if holdout else {}
        rows = {}
        for m in bench["end_to_end"]:
            v = values.get(m["name"])
            if not v:
                continue
            med, iqr = median_iqr(v)
            row = {"median": med, "noise_pct": 100 * share(iqr, med),
                   "bound_pct": 100 * m["bound"], "n": len(v)}
            hold = ""
            if m["name"] in held:
                row["holdout_delta_pct"] = 100 * share(
                    held[m["name"]][0] - med, med)
                hold = f"{row['holdout_delta_pct']:+8.2f}%"
            rows[m["name"]] = row
            print(f"{w['name']:14s} {m['name']:18s} {med:12.5g} "
                  f"{row['noise_pct']:7.2f}% {row['bound_pct']:5.1f}% {hold}")
        record["workloads"][w["name"]] = rows
    if json_out:
        with open(json_out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(
        description="Compare two sets of bench/e2e result directories.")
    p.add_argument("dirs", nargs="+",
                   help="PARENT_DIR... -- CHANGE_DIR..., or with --noise DIR...")
    p.add_argument("--noise", action="store_true",
                   help="report the spread of one set of runs")
    p.add_argument("--holdout", help="noise mode: a holdout-seed result dir")
    p.add_argument("--json", help="noise mode: write the record here")
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    if args.noise:
        return noise(bench, args.dirs, args.holdout, args.json)
    if "--" not in sys.argv:
        p.error("separate the parent and change directories with --")
    split = sys.argv.index("--")
    parent = [d for d in sys.argv[1:split] if not d.startswith("-")]
    change = sys.argv[split + 1:]
    if not parent or not change:
        p.error("need at least one directory on each side of --")
    return compare(bench, parent, change)


if __name__ == "__main__":
    sys.exit(main())
