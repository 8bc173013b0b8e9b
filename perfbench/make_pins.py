#!/usr/bin/env python3
"""Regenerates perfbench/pins.json, the exact outputs every benchmark run is
checked against.

Run it only after a change that is meant to change the golden outputs (and
say so in that change):

    python3 perfbench/make_pins.py            # smoke and full, ~10 minutes
    python3 perfbench/make_pins.py --smoke    # smoke pins only, seconds

Each pin is taken from a --trace 1 run, and that run's own cross-checks
(traced pipeline = run_circuit, supervisor = batch = direct engine calls,
journal = merged items) must all pass first.
"""
import argparse
import json
import os
import sys

import run as bench

WORKLOADS = ("table2_s5378", "heavy_s15850", "hitec_s5378_fork")


def pin(workload, seed, smoke):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=1,
                              smoke=smoke)
    report = bench.run_motbench(args)
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    if failed:
        sys.exit(f"{workload} seed {seed}: checks failed: {failed}")
    return report


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--smoke", action="store_true", help="only the smoke pins")
    args = p.parse_args()
    bench.build()
    path = os.path.join(bench.BENCH_DIR, "pins.json")
    pins = bench.load_json("pins.json") if os.path.isfile(path) else {}
    for mode in ("smoke",) if args.smoke else ("smoke", "full"):
        pins[mode] = {}
        for w in WORKLOADS:
            first = pin(w, 0, mode == "smoke")
            family = first["config"]["input_family"]
            pins[mode][w] = {"0": first["outputs"]}
            for seed in range(1, family):
                report = pin(w, seed, mode == "smoke")
                pins[mode][w][str(report["config"]["input_seed"])] = report["outputs"]
            print(f"{mode} {w}: {family} input seed(s) pinned", file=sys.stderr)
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
