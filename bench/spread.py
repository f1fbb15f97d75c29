#!/usr/bin/env python3
"""Run the benchmark command over several seeds and print, per workload and
end-to-end metric, the median and the spread (interquartile range over the
median, quartiles as statistics.quantiles(n=4) gives them) next to the
metric's bound. This is the acceptance protocol of the benchmark contract:
every spread but setup_s's must stay within its bound, and should stay below
a third of it.

    python3 bench/spread.py [--seeds 10] [--first-seed 101] [--workload NAME]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--manifest", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.manifest) as f:
        man = json.load(f)
    bounds = {m["name"]: m["bound"] for m in man["end_to_end"]}
    workloads = args.workload or [w["name"] for w in man["workloads"]]
    worst = 0.0
    disturbed = 0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = man["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(man["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: {res['failed']} failed operations")
            # A run that hit a machine stall measures fewer passes; its
            # minima are over a smaller sample. Keep it (the driver would)
            # but say so.
            cut = "DISTURBED" in out
            disturbed += cut
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"  {w} seed {seed}: " + " ".join(
                f"{n}={res['metrics'][n]['value']:.4g}" for n in bounds)
                + ("  DISTURBED (passes cut)" if cut else ""), flush=True)
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"{w:18s} {name:14s} median {med:12.4f}  spread {spread*100:5.1f}%  "
                  f"bound {bounds[name]*100:4.0f}%  ({share:4.2f} of bound)", flush=True)
    print(f"worst spread/bound outside setup_s: {worst:.2f}; {disturbed} disturbed run(s)")


if __name__ == "__main__":
    main()
