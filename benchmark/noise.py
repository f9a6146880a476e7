#!/usr/bin/env python3
"""Measures the benchmark's own noise floor, the way the driver does.

Run from the root of a checkout:

    python3 benchmark/noise.py seeds [RUNS] [FIRST_SEED]   # ten seeds per workload, twice
    python3 benchmark/noise.py full  [RUNS]                # the full command, same seed

`seeds` runs BENCHMARK.json's command once per workload and seed with
`--trace 0`, in two sets, and prints for every end-to-end metric the
spread the driver computes (distance between the first and third
quartile of `statistics.quantiles(values, n=4)` as a share of the
median) next to the metric's bound, and by how much the second set's
median is worse than the first's.

`full` runs the command without `--workload` RUNS times at the default
seed and prints min / median / max / spread per metric from the
`benchmark/out/result.json` each run writes.

Both print Markdown tables; NOISE.md is their output plus commentary. With
NOISE_KEEP=DIR in the environment, `seeds` also keeps every run's standard
output (the `#` lines hold every wall, kernel and lap time) as
DIR/WORKLOAD-SEED.txt.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))
COMMAND = BENCH["command"]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = BENCH["end_to_end"]


def run(args):
    start = time.time()
    keep = os.environ.get("NOISE_KEEP")
    env = dict(os.environ, SC_BENCH_LAPS="1") if keep else None
    proc = subprocess.run(COMMAND + args, capture_output=True, text=True, check=False, env=env)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    if keep and "--workload" in args:
        os.makedirs(keep, exist_ok=True)
        name = f"{args[args.index('--workload') + 1]}-{args[args.index('--seed') + 1]}.txt"
        with open(os.path.join(keep, name), "w") as out:
            out.write(proc.stdout)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(args)} was not correct: {proc.stderr}")
    return result, time.time() - start


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, second):
    delta = first - second if metric["better"] == "higher" else second - first
    return delta / first


def seeds(runs, first_seed):
    medians = {}
    print("| workload | metric | set | median | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|")
    for attempt in (0, 1):
        for workload in WORKLOADS:
            values = {m["name"]: [] for m in END_TO_END}
            walls = []
            for i in range(runs):
                seed = first_seed + attempt * runs + i
                result, wall = run(
                    ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(BENCH["run_seconds"]), "--trace", "0"])
                walls.append(wall)
                for name, m in result["metrics"].items():
                    values[name].append(m["value"])
            for m in END_TO_END:
                v = values[m["name"]]
                med = statistics.median(v)
                medians[(workload, m["name"], attempt)] = med
                s = spread(v)
                ratio = "-" if m["bound"] == 0 else f"{s / m['bound']:.2f}"
                print(f"| {workload} | {m['name']} | {attempt + 1} | {med:.6g} | "
                      f"{100 * s:.3f}% | {100 * m['bound']:g}% | {ratio} |")
            print(f"| {workload} | (run wall, s) | {attempt + 1} | "
                  f"{statistics.median(walls):.1f} | max {max(walls):.1f} | | |", flush=True)
    print()
    print("| workload | metric | median 1 | median 2 | second worse by | bound |")
    print("|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        for m in END_TO_END:
            a = medians[(workload, m["name"], 0)]
            b = medians[(workload, m["name"], 1)]
            print(f"| {workload} | {m['name']} | {a:.6g} | {b:.6g} | "
                  f"{100 * worse_by(m, a, b):+.3f}% | {100 * m['bound']:g}% |")


def full(runs):
    results = []
    for i in range(runs):
        _, wall = run([])
        shutil.copy("benchmark/out/result.json", f"benchmark/out/result-{i + 1}.json")
        results.append(json.load(open("benchmark/out/result.json")))
        print(f"<!-- run {i + 1}: {wall:.0f} s -->", flush=True)
    for section in ("end_to_end", "per_layer"):
        print(f"\n### {section}\n")
        print("| workload | metric | unit | min | median | max | (max-min)/median |")
        print("|---|---|---|---|---|---|---|")
        for workload in WORKLOADS:
            for name, first in results[0]["workloads"][workload][section].items():
                v = [r["workloads"][workload][section][name]["value"] for r in results]
                med = statistics.median(v)
                rel = "0" if max(v) == min(v) else (
                    f"{100 * (max(v) - min(v)) / abs(med):.2f}%" if med else "-")
                print(f"| {workload} | {name} | {first['unit']} | {min(v):.6g} | "
                      f"{med:.6g} | {max(v):.6g} | {rel} |")


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    count = int(sys.argv[2]) if len(sys.argv) > 2 else None
    if mode == "seeds":
        seeds(count or 10, int(sys.argv[3]) if len(sys.argv) > 3 else 1)
    elif mode == "full":
        full(count or 5)
    else:
        sys.exit(__doc__)
