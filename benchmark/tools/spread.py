#!/usr/bin/env python3
"""Run every workload at several seeds and report, per end-to-end metric, the
distance between the first and third quartile as a share of the median
(Python's statistics.quantiles(values, n=4)) against the metric's bound in
BENCHMARK.json -- the figure the benchmark's bounds are accepted on.

    python3 benchmark/tools/spread.py [--runs 10] [--first-seed 1] [--trace 0|1] [--workload NAME]... [--dump]

Run from the repository root; builds and runs the command BENCHMARK.json names.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--dump", action="store_true", help="print every value")
    args = parser.parse_args()
    manifest = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    failed = False
    for workload in args.workload or [w["name"] for w in manifest["workloads"]]:
        values, walls = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", args.trace,
            ]
            started = time.time()
            done = subprocess.run(command, capture_output=True, text=True)
            walls.append(time.time() - started)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / abs(median) if median else float("nan")
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = f"bound {bound:.0%}" + ("" if spread <= bound / 3 or name == "setup_s" else "  > bound/3")
                if spread > bound and name != "setup_s":
                    note += "  EXCEEDS BOUND"
                    failed = True
            print(f"  {name:<40} median {median:>16.6f}  spread {spread:>7.2%}  {note}")
            if args.dump:
                print("      " + " ".join(f"{v:.6g}" for v in series))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
