#!/usr/bin/env python3
"""Steadiness self-check for the benchmark described by BENCHMARK.json.

Runs every workload of BENCHMARK.json N times with seeds 1..N, alternating
workloads, at the file's run_seconds and with the end-to-end metrics
(--trace 0). Prints for each metric the median, the quartiles and the spread
(interquartile distance as a share of the median). A metric whose spread exceeds its bound is
flagged with "!!", one above a third of its bound with "!". Also checks that
every run reported correct=true and the same share of failed operations.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {name: [] for name in names}
    for seed in range(1, args.runs + 1):
        for name in names:
            r = run_once(bench["command"], name, seed, seconds)
            results[name].append(r)
            print(f"# {name} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)

    flagged = 0
    for name in names:
        runs = results[name]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{name}: {len(runs)} runs, all correct={correct}, failed shares={sorted(shares)}")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds[metric]
            mark = ""
            if spread > bound:
                mark = "!!"
                flagged += 1
            elif spread > bound / 3:
                mark = "!"
            print(f"  {metric:<28} {med:>12.4g} {q1:>12.4g} {q3:>12.4g} {spread:>8.3f} {bound:>6.2f} {mark}")
        if not correct or len(shares) != 1:
            flagged += 1
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
