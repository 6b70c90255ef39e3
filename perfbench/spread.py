#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and spread (interquartile range over median).

Run from the repository root, for example:

    python3 perfbench/spread.py --workloads serve-cold --seeds 1-5

Each run's JSON line is appended to --log, so a long sweep can be
inspected while it runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--log", default=os.path.join(".bench_build", "spread.jsonl"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)

    ok = True
    for wl in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {out.returncode}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": wl, "seed": seed, **res}) + "\n")
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: incorrect ({res['failed']} failed)", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of its bound"
            print(f"{wl:12} {name:14} median {med:12.4f}  spread {spread:6.3f}  bound {bounds[name]}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
