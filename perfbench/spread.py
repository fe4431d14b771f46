#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the command of BENCHMARK.json `--runs` times per workload, at seeds
`--first-seed` (default 1) and up, with the workloads interleaved, then
prints for every workload and metric the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and the quartile
distance as a share of the median, next to the metric's bound. The printed, ungated
`run_wall_s.p50` (the raw wall-time median the quiet-host `run_s.p50`
is derived from) gets a row of its own for comparison. Run it from the
root of the repository:

    python3 perfbench/spread.py --runs 10 --out perfbench/baseline/spread.json
"""

import argparse
import json
import statistics
import subprocess
import sys

WALL = "run_wall_s.p50"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="also write the samples and spreads as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    samples = {w: {m: [] for m in [*bounds, WALL]} for w in workloads}
    correct = True
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=False)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            correct &= out.returncode == 0 and result["correct"]
            for m, v in result["metrics"].items():
                samples[w][m].append(v["value"])
            wall = next(l for l in out.stdout.splitlines() if l.startswith(f"{w} {WALL} "))
            samples[w][WALL].append(float(wall.split()[2]))
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: exit {out.returncode}", file=sys.stderr)

    rows = []
    print(f"{'workload':<20} {'metric':<14} {'median':>12} {'p25':>12} {'p75':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        for m, xs in samples[w].items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(m)
            rows.append({"workload": w, "metric": m, "median": med, "p25": q1, "p75": q3,
                         "spread": spread, "bound": bound, "values": xs})
            if bound is None:
                flag = "  (not gated)"
            elif m != "setup_s" and spread >= bound / 3:
                flag = "  <-- above bound/3"
            else:
                flag = ""
            print(f"{w:<20} {m:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound or '-':>6}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": args.runs, "first_seed": args.first_seed, "correct": correct,
                       "rows": rows}, f, indent=1)
            f.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
