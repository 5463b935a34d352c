#!/usr/bin/env python3
"""Runs each workload of BENCHMARK.json ten times, alternating between
workloads, each run with its own seed (seed0, seed0+1, ...), and prints
every metric's median, quartiles and spread (quartile distance / median)
against its bound, flagging any spread above a third of its bound.

    python3 perfbench/spread.py [--seed0 1]

Run it from the repository root. Each run's JSON line is appended to
.bench_build/spread-runs.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


RUNS = 10


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {n: {} for n in names}
    shares = {n: set() for n in names}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(".bench_build/spread-runs.jsonl", "a")
    for i in range(RUNS):
        for n in names:
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", n, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit(f"{n} seed {seed}: exit {out.returncode}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": n, "seed": seed, **res}) + "\n")
            log.flush()
            if not res["correct"]:
                print(f"{n} seed {seed}: incorrect output", file=sys.stderr)
            shares[n].add((res["failed"], res["attempted"]))
            for m, v in res["metrics"].items():
                values[n].setdefault(m, []).append(v["value"])
            print(f"run {i + 1}/{RUNS} {n} seed {seed} done", file=sys.stderr)

    print(f"{'workload':18} {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for n in names:
        for m in sorted(values[n]):
            vs = values[n][m]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(m, {}).get("bound")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
            bs = f"{bound:.2f}" if bound is not None else "-"
            print(f"{n:18} {m:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bs:>6}{flag}")
        fs = sorted(f / a for f, a in shares[n])
        print(f"{n:18} failed share per run: {', '.join(f'{s:.6f}' for s in fs)}")


if __name__ == "__main__":
    main()
