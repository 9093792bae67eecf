#!/usr/bin/env python3
"""Steadiness tool: runs workloads k times and reports each metric's spread.

    python3 perfbench/steady.py [--runs K] [--seed0 N] [--seconds S]
                                [--workloads a,b,...] [--traced]

Round r runs every workload once with seed N+r, alternating the order of
the workloads between rounds. For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles(n=4)) and the
interquartile spread as a share of the median, and flags every metric
whose spread exceeds its bound in BENCHMARK.json. It
also prints each workload's failed share and whether every run was
correct. With --traced it adds one traced run per workload and round and
prints the traced/untraced gap of each end-to-end median (the tracing
overhead). Exit status 1 when anything was flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady: run failed: {' '.join(cmd)}")
    traced = {}
    for line in lines:
        if line.startswith("traced end-to-end:"):
            traced = {k: float(v) for k, v in (kv.split("=") for kv in line.split()[2:])}
    return json.loads(lines[-1]), traced, wall


def main():
    spec = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", action="store_true")
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for r in range(a.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            res, _, wall = run(w, a.seed0 + r, a.seconds, 0)
            results[w].append(res)
            if a.traced:
                traced[w].append(run(w, a.seed0 + r, a.seconds, 1)[1])
            print(f"round {r} {w} ({wall:.1f} s): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)

    flagged = False
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, all correct: {correct}, "
              f"failed share(s) {sorted(shares)}")
        flagged |= not correct or len(shares) != 1
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bad = spread > bound
            flagged |= bad
            note = " FLAG" if bad else (" (>1/3 bound)" if spread > bound / 3 else "")
            line = f"  {name:<22}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.4f}{bound:>7}{note}"
            if a.traced and traced[w]:
                tmed = statistics.median(t[name] for t in traced[w])
                line += f"  traced {tmed:.6g} ({(tmed / med - 1) * 100:+.2f}%)"
            print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
