#!/usr/bin/env python3
"""Calibrates the benchmark the way its acceptance rule is stated.

Runs every workload ten times, each time with another seed, twice over
(two sets), from the repository root, and prints for every bounded
(workload, metric) the first set's median, the spread between its
quartiles (statistics.quantiles(values, n=4)) and (max - min), both as
shares of the median, and by how much the second set's median is worse
than the first's. That is the check the benchmark was accepted with.

With --same-seed every run uses seed 1, so that what spreads is the host
and not the input; with --write the median and the two spreads over both
sets go to baseline.json, which -compare embeds to tell a resolved
difference between two runs from an unresolved one.

    python3 benchmark/calibrate.py                      # acceptance check, ~30 min
    python3 benchmark/calibrate.py --same-seed --write  # new baseline.json
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds):
    """One untraced run; returns its result from report.json."""
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    verdict = json.loads(out.strip().splitlines()[-1])
    if not verdict["correct"] or verdict["failed"]:
        sys.exit(f"{workload} seed {seed}: {verdict}")
    report = json.loads((HERE / "out" / "report.json").read_text())
    (result,) = report["workloads"]
    result["wall_s"] = time.time() - t0
    result["commit"] = report["env"]["commit"]
    return result


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med, (max(values) - min(values)) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--same-seed", action="store_true", help="seed 1 for every run")
    ap.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--write", action="store_true", help="write baseline.json")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounded = [m["name"] for m in spec["end_to_end"]] + [m["name"] for m in spec["per_layer"] if m["name"].startswith("tail.")]

    sets = []  # sets[i][workload][metric] = values over the seeds
    commit = ""
    for i in range(2):
        sets.append({})
        for w in workloads:
            rows = [run(w, 1 if args.same_seed else n, args.seconds) for n in range(1, args.runs + 1)]
            commit = rows[0]["commit"]
            sets[i][w] = {m: [r["metrics"][m] for r in rows] for m in bounded if rows[0]["metrics"][m] != 0}
            walls = [r["wall_s"] for r in rows]
            print(f"# set {i + 1} {w}: {len(rows)} runs, {min(walls):.1f} to {max(walls):.1f} s each", flush=True)

    baseline = {"commit": commit, "runs": 2 * args.runs, "same_seed": args.same_seed, "seconds": args.seconds, "workloads": {}}
    print(f"{'workload':22} {'metric':26} {'median':>12} {'iqr':>7} {'range':>7} {'2nd worse by':>13}")
    for w in workloads:
        baseline["workloads"][w] = {}
        for m, first in sets[0][w].items():
            second = sets[1][w][m]
            med, iqr, rng = spread(first)
            shift = (statistics.median(second) - med) / med
            if better[m] == "higher":
                shift = -shift
            print(f"{w:22} {m:26} {med:12.6g} {iqr:7.3f} {rng:7.3f} {shift:+13.3f}")
            med, iqr, rng = spread(first + second)
            baseline["workloads"][w][m] = {"median": med, "iqr_share": iqr, "range_share": rng}
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
