#!/usr/bin/env python3
"""Run one benchmark workload repeatedly and report how steady it is.

    python3 perfbench/steady.py --workload mixed --runs 10 --seconds 20

Each run uses its own seed (first_seed, first_seed + 1, ...). For every metric
the report gives the median, the first and third quartiles (as
statistics.quantiles(values, n=4) computes them) and the spread, (Q3 - Q1) /
median, which is what a bound in BENCHMARK.json is compared with. It also
prints the CPU steal time the host took from this machine during each run,
read from /proc/stat (only read, never written), since steal explains most
outliers on a shared VM. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def steal_jiffies():
    """Total steal time of all CPUs so far, in USER_HZ ticks."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    spec = json.load(open(spec_path)) if os.path.exists(spec_path) else {}
    seconds = args.seconds or spec.get("run_seconds", 10)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    values = {}
    units = {}
    failed_shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        steal0, t0 = steal_jiffies(), time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        wall, steal = time.time() - t0, steal_jiffies() - steal0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run {i} (seed {seed}) failed with exit code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        failed_shares.add(result["failed"] / result["attempted"])
        print(f"run {i:2d} seed {seed:3d}  wall {wall:6.1f} s  steal {steal:5d} jiffies  "
              f"correct {result['correct']}  failed {result['failed']}/{result['attempted']}  "
              + "  ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s; failed share(s): "
          f"{sorted(failed_shares)}")
    print(f"{'metric':34s} {'unit':8s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:34s} {units[name]:8s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
