#!/usr/bin/env python3
"""Steadiness check: run each workload N times with distinct seeds and
print, per end-to-end metric, the median, the quartiles and the spread
(distance between the quartiles as a share of the median) next to the
metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads testbed-baselines --first-seed 101

The bounds in BENCHMARK.json are set from this output: a spread must
stay within its bound, and should stay below a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result, wall


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    opts = ap.parse_args()

    declared = bench["end_to_end"]
    for workload in opts.workloads.split(","):
        values = {m["name"]: [] for m in declared}
        shares, walls, correct = [], [], True
        for i in range(opts.runs):
            seed = opts.first_seed + i
            result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"])
            walls.append(wall)
            correct &= result["correct"]
            shares.append(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {opts.runs} runs, seeds {opts.first_seed}..{opts.first_seed + opts.runs - 1}, "
              f"all correct: {correct}, failed shares: {sorted(set(shares))}, "
              f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for m in declared:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            flag = "  over bound" if spread > bound else ("  over a third" if spread > bound / 3 else "")
            print(f"  {m['name']:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{bound:>8}{flag}")


if __name__ == "__main__":
    main()
