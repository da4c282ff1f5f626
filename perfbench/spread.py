#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: medians and IQR/median per metric.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--runs 10] [--seconds S] [--workload NAME ...]
                                [--trace-seed N] [--write PATH]

Runs every workload of BENCHMARK.json --runs times, seeds 1..runs, one run
at a time, and prints for each end-to-end metric its median and the distance
between the first and third quartile as a share of the median
(statistics.quantiles, n=4). With --trace-seed it adds one traced run per
workload and records its per-layer metrics. --write stores the host, the
medians, the spreads and the per-layer values as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr}")
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    default=None, help="repeatable; default: all")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--write", default=None)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"host": {"nproc": os.cpu_count(), "cpu": cpu_model()},
              "runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for w in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            for name, m in run(w, seed, args.seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"end_to_end": {}}
        print(f"{w} ({args.runs} runs, {args.seconds} s)")
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            entry["end_to_end"][name] = {"median": med,
                                         "iqr_over_median": spread}
            print(f"  {name:24s} median {med:14.6g}  iqr/median {spread:6.3f}"
                  f"  bound {bounds[name]}")
        if args.trace_seed is not None:
            traced = run(w, args.trace_seed, args.seconds, 1)["metrics"]
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {k: m["value"] for k, m in traced.items()}
        report["workloads"][w] = entry
    if args.write:
        with open(args.write, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
