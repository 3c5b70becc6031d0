#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the BENCHMARK.json command N times per workload (default 10), each time
with another --seed, and prints for each (workload, metric) the median and the
distance between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound. Exits 1 if a spread other
than setup_s's exceeds its bound or any run was incorrect.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]... [--out FILE]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bad = False
    report = {}
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(args.first_seed + i),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {args.first_seed + i}: {result['failed']} of "
                      f"{result['attempted']} operations failed", file=sys.stderr)
                bad = True
            for metric, samples in values.items():
                samples.append(result["metrics"][metric]["value"])
        report[name] = values
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= m["bound"] / 3 else "wide" if spread <= m["bound"] else "OVER"
            if verdict == "OVER" and m["name"] != "setup_s":
                bad = True
            print(f"{name:<20} {m['name']:<12} median {med:>10.4f} {m['unit']:<3} "
                  f"spread {spread * 100:5.2f}%  bound {m['bound'] * 100:4.0f}%  {verdict}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
