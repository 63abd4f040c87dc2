#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload --runs times, interleaved (tpcb, ch-olap, ch-htap,
tpcb, ...), each run with its own seed, and prints for every end-to-end
metric the median, the quartiles and the spread (Q3 - Q1) / median, next to
the bound BENCHMARK.json fixes. With --batches 2 it repeats the whole set
and reports how far the second batch's medians moved from the first's.

    python3 htapbench/steady.py --runs 10 --batches 2

Run from the repository root. Raw results are appended to
.bench_build/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=600)
    wall = time.time() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return res, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--batches", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "steady.jsonl"), "a")
    medians = []  # per batch: {(workload, metric): median}
    seed = args.seed
    for batch in range(args.batches):
        values = {}
        for i in range(args.runs):
            for w in workloads:
                res, wall = run_once(cmd, w, seed, seconds)
                log.write(json.dumps({"batch": batch, "workload": w, "seed": seed,
                                      "wall_s": wall, "result": res}) + "\n")
                log.flush()
                if not res["correct"] or res["failed"]:
                    sys.exit(f"{w} seed {seed}: incorrect result {res}")
                for name, m in res["metrics"].items():
                    values.setdefault((w, name), []).append(m["value"])
                print(f"batch {batch} run {i} {w} seed {seed}: {wall:.0f}s", file=sys.stderr)
            seed += 1
        meds = {}
        print(f"\nbatch {batch + 1}: {args.runs} runs per workload, {seconds}s windows")
        print("| workload | metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---:|---:|---:|---:|---:|")
        for (w, name), vs in sorted(values.items()):
            med, q1, q3, spread = summarize(vs)
            meds[(w, name)] = med
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else " (over bound/3)"
            print(f"| {w} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f}{flag} | {bounds[name]} |")
        medians.append(meds)
    if len(medians) > 1:
        print("\nbatch-to-batch drift of the medians (batch 2 vs batch 1)")
        print("| workload | metric | drift |")
        print("|---|---|---:|")
        for key in sorted(medians[0]):
            a, b = medians[0][key], medians[1][key]
            print(f"| {key[0]} | {key[1]} | {(b - a) / a:+.3f} |")


if __name__ == "__main__":
    main()
