#!/usr/bin/env python3
"""Run one workload several times, with seeds 1, 2, ..., each run as long as
BENCHMARK.json's run_seconds, and report the spread of every end-to-end
metric: median, quartiles and the interquartile distance as a share of the
median (statistics.quantiles(values, n=4)).

    python3 perfbench/spread.py --workload NAME [--runs 10]

Run from the root of a source tree.  Also prints each run's wall time and
the attempted/failed counts, and fails if any run is not correct.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    seconds = json.load(open("BENCHMARK.json"))["run_seconds"]
    values, ok = {}, True
    for seed in range(1, a.runs + 1):
        cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - t0
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        r = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and r["correct"]
        print("seed %d: wall %.1fs correct %s attempted %d failed %d"
              % (seed, wall, r["correct"], r["attempted"], r["failed"]))
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = vs[0]
        share = (q3 - q1) / med if med else float("nan")
        print("%-30s median %14.6g  q1 %14.6g  q3 %14.6g  iqr/median %.4f"
              % (name, med, q1, q3, share))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
