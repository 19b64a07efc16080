#!/usr/bin/env python3
"""Measures how steady the end-to-end metrics are across seeds.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] [--workload NAME ...] [--json FILE]

Runs each workload of `BENCHMARK.json` (or those named with `--workload`)
`--runs` times, seeds 1, 2, ..., through `run.py`, for `run_seconds` from
`BENCHMARK.json` unless `--seconds` is given. Prints per metric the median
and the interquartile spread as a share of the median (quartiles as
`statistics.quantiles(values, n=4)` gives them). The bounds in
`BENCHMARK.json` are derived from these spreads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sheet_grid", "let_eager", "avl_lang", "tenants_pool"]


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--json", help="also write the table here")
    args = p.parse_args()
    table = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        table[workload] = {}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            table[workload][name] = {"median": med, "iqr_share": spread, "values": v}
            print(f"{workload:<13} {name:<14} median {med:>12.4f}  iqr/median {spread:7.4f}",
                  flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1)


if __name__ == "__main__":
    main()
