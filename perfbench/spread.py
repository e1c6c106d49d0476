#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's median and spread.

    python3 perfbench/spread.py --workload offline_paper5 [--workload ...] --seeds 1-10 \\
        [--json out.json]

Every run is untraced (--trace 0), so it reports the end-to-end metrics, the ones with a
bound. Runs are sequential and seed-major (every workload for seed 1, then for seed 2, ...),
so slow drift of the host's speed spreads over all workloads alike. Spread is the
interquartile range as a share of the median, with quartiles from
statistics.quantiles(values, n=4): the figure a metric's bound in BENCHMARK.json is checked
against. The JSON file has the layout of perfbench/baseline.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    return result


def summarize(runs):
    """Per metric: unit, values in run order, median, quartiles and spread."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1,
                         "q3": q3, "iqr_over_median": (q3 - q1) / median if median else 0.0,
                         "values": values}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    seeds = parse_seeds(args.seeds)
    runs = {workload: [] for workload in args.workload}
    for seed in seeds:
        for workload in args.workload:
            runs[workload].append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed} done", file=sys.stderr)

    workloads = {}
    for workload, results in runs.items():
        workloads[workload] = summarize(results)
        print(workload)
        for name, m in workloads[workload].items():
            print(f"  {name:40s} median {m['median']:14.6g} {m['unit']:9s} q1 {m['q1']:14.6g} "
                  f"q3 {m['q3']:14.6g} spread {m['iqr_over_median']:7.2%}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"nproc": os.cpu_count(), "seconds": seconds, "seeds": seeds,
                       "workloads": workloads}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
