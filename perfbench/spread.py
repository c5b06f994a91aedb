#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for each
end-to-end metric, the median and quartiles of the per-run values and
their spread (quartile distance over median), as JSON on stdout.

    python3 perfbench/spread.py --seeds 1-10 [--workloads sim-flood,live-tcp]

Run it from the checkout root. Settings (command, run length, workloads,
metrics and bounds) come from BENCHMARK.json, so the figures are the ones
the benchmark's stability rule is stated in: each spread should stay
within its metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for name in names:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            line = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            res = json.loads(line)
            print(f"{name} seed {seed}: exit {p.returncode} {line}", file=sys.stderr, flush=True)
            if p.returncode != 0 or not res.get("correct"):
                sys.exit(f"{name} seed {seed} failed:\n{p.stderr[-2000:]}")
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        report[name] = {}
        for metric, xs in sorted(values.items()):
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            report[name][metric] = {
                "n": len(xs), "q1": q1, "median": med, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": bounds.get(metric),
            }
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
