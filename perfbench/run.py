#!/usr/bin/env python3
"""Builds the benchmark and runs one workload (or all of them).

Usage, from the repository root:

    python3 perfbench/run.py --workload sheet_grid --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload sheet_grid --seed 7 --seconds 10 --trace 1
    python3 perfbench/run.py --seed 7 --seconds 10        # every workload

`--trace 0` runs the untraced arm and prints the end-to-end metrics.
`--trace 1` splits the seconds between the untraced and the traced arm,
both on the same seed, and prints the per-layer ledger; `trace.overhead_pct`
compares the two arms' `updates_per_s`. Spans of the traced arm are written
to `perfbench/out/spans_<workload>.json` (Chrome trace format).

The last line of standard output is one JSON result object; progress and a
readable table go to standard error. The exit code is non-zero when the
build fails, an answer disagrees with its reference, or the ledger does not
reconcile.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sheet_grid", "let_eager", "avl_lang", "tenants_pool"]


def build():
    """Builds both arms in release mode; returns {name: executable}."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--bins",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed ({proc.returncode})")
    exes = {}
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes[msg["target"]["name"]] = msg["executable"]
    if set(exes) != {"perfbench", "perfbench-traced"}:
        sys.exit(f"perfbench: build produced {sorted(exes)}")
    return exes


def run_arm(exe, workload, seed, seconds, env=None):
    """Runs one arm; returns (exit code, parsed result line or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def traced(exes, workload, seed, seconds):
    half = seconds / 2
    code_u, plain = run_arm(exes["perfbench"], workload, seed, half)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_SPANS=os.path.join(out_dir, f"spans_{workload}.json"))
    code_t, ledger = run_arm(exes["perfbench-traced"], workload, seed, half, env)
    if plain is None or ledger is None:
        return max(code_u, code_t, 1), None
    ups_plain = plain["metrics"]["updates_per_s"]["value"]
    ups_traced = ledger["metrics"]["trace.updates_per_s"]["value"]
    metrics = dict(ledger["metrics"])
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (ups_plain / ups_traced - 1.0),
        "unit": "%",
    }
    print(f"  {'trace.overhead_pct':<28} {metrics['trace.overhead_pct']['value']:>16.4f} %",
          file=sys.stderr)
    result = {
        "correct": plain["correct"] and ledger["correct"],
        "attempted": plain["attempted"] + ledger["attempted"],
        "failed": plain["failed"] + ledger["failed"],
        "metrics": metrics,
    }
    return max(code_u, code_t), result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    exes = build()
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        if args.trace:
            code, result = traced(exes, workload, args.seed, args.seconds)
        else:
            code, result = run_arm(exes["perfbench"], workload, args.seed, args.seconds)
        if result is None:
            sys.exit(f"perfbench: {workload} printed no result (exit {code})")
        print(json.dumps(result), flush=True)
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()
