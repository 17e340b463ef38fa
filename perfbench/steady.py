#!/usr/bin/env python3
"""Steadiness of the serving benchmark: run one workload N times, each with
another seed, and print per metric the median, quartiles, the quartile
spread as a share of the median, and the coefficient of variation, plus the
load average around each run.  The bounds in BENCHMARK.json are set from it.

    python3 perfbench/steady.py --workload cold_unique --runs 10 [--seconds 10]
        [--first-seed 1]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def loadavg():
    with open("/proc/loadavg") as f:
        return " ".join(f.read().split()[:3])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    values, shares = {}, set()
    for i in range(a.runs):
        seed = a.first_seed + i
        before = loadavg()
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if res.returncode != 0:
            print("seed %d: run.py exited with %d" % (seed, res.returncode))
            return 1
        out = json.loads(res.stdout.strip().splitlines()[-1])
        shares.add((out["failed"], out["attempted"]))
        print("seed %d: correct %s, attempted %d, failed %d, loadavg %s -> %s; %s" % (
            seed, out["correct"], out["attempted"], out["failed"], before, loadavg(),
            ", ".join("%s %.6g" % (k, v["value"]) for k, v in out["metrics"].items())),
            flush=True)
        for k, v in out["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    ratios = {f / n for f, n in shares}
    print("failed share: %s" % ("identical in every run" if len(ratios) == 1
                                else "DIFFERS: %s" % sorted(ratios)))
    print("%-32s %14s %14s %14s %9s %9s" % ("metric", "median", "q1", "q3", "iqr/med", "cv"))
    for k, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        cv = statistics.stdev(v) / statistics.mean(v) if len(v) > 1 and statistics.mean(v) else 0.0
        spread = (q3 - q1) / med if med else 0.0
        print("%-32s %14.6g %14.6g %14.6g %9.4f %9.4f" % (k, med, q1, q3, spread, cv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
