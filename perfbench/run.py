#!/usr/bin/env python3
"""Entry point of the motsim benchmark.

Builds the benchmark program (perfbench/motbench.cpp) together with the
library sources of this checkout, runs one workload, checks its outputs
against perfbench/pins.json and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload table2_s5378 --seed 3 --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --smoke runs the same paths on tiny circuits (seconds).
--generate-hitec PATH rewrites the committed hitec_s5378_fork input (about
four minutes). Exit codes: 0 = correct result printed, 1 = result printed
but outputs wrong, 2 = no result (build or run failure).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
MOTBENCH = os.path.join(BUILD_DIR, "motbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds motbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no motsim sources under {ROOT}/src")
    jobs = str(len(os.sched_getaffinity(0)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "motbench", "-j", jobs]
    for attempt in range(2):
        cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
        steps = [compile_] if os.path.isfile(cache) else [configure, compile_]
        if all(subprocess.run(s, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
               for s in steps):
            return
        if attempt == 0 and os.path.isfile(cache):
            log("build failed with an existing cache; reconfiguring from scratch")
            os.remove(cache)
            continue
        raise RuntimeError("build failed")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_motbench(args):
    """Runs motbench; returns its JSON report (its last stdout line)."""
    cmd = [MOTBENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", os.path.join(BENCH_DIR, "inputs"),
           "--work", os.path.join(BUILD_DIR, "work"), "--commit", git_commit()]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"motbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_json(name, base=BENCH_DIR):
    with open(os.path.join(base, name)) as f:
        return json.load(f)


def pin_mismatches(report, pins):
    """Differences between the report's outputs and the pinned ones, and the
    pinned keys that were compared. items_sha is compared only when the run
    computed it (fork and traced runs); every other pinned key must be there."""
    cfg = report["config"]
    pin = pins.get(cfg["workload"], {}).get(str(cfg["input_seed"]))
    if pin is None:
        return [f"no pin for {cfg['workload']} input seed {cfg['input_seed']}"], []
    outputs = report["outputs"]
    compared = sorted(k for k in pin if k in outputs)
    return ([f"{k}: got {outputs[k]!r}, pinned {pin[k]!r}"
             for k in compared if outputs[k] != pin[k]] +
            [f"{k}: missing" for k in pin if k != "items_sha" and k not in outputs]), compared


def verdict(report, pins):
    """(correct, problems, compared pin keys) of a motbench report."""
    problems = [f"check failed: {c['name']} {c['detail']}"
                for c in report["checks"] if not c["ok"]]
    mismatches, compared = pin_mismatches(report, pins)
    problems += [f"output differs from pins.json: {m}" for m in mismatches]
    return not problems, problems, compared


def metrics_of(report, trace, spec):
    """The BENCHMARK.json metrics of this mode, from the motbench report."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values = report["layers"]
    else:
        values = {
            "campaign_s": {"value": statistics.median(report["campaign_s"]), "unit": "s"},
            "faults_per_s": {"value": statistics.median(report["faults_per_s"]), "unit": "1/s"},
            "setup_s": {"value": min(report["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    out = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or v["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} missing or not in {m['unit']}")
        out[m["name"]] = {"value": v["value"], "unit": v["unit"]}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--generate-hitec", metavar="PATH")
    args = p.parse_args()
    try:
        build()
        if args.generate_hitec:
            return subprocess.run([MOTBENCH, "--generate-hitec", args.generate_hitec],
                                  cwd=ROOT).returncode
        if not args.workload:
            p.error("--workload is required")
        spec = load_json("BENCHMARK.json", ROOT)
        pins = load_json("pins.json")["smoke" if args.smoke else "full"]
        report = run_motbench(args)
        metrics = metrics_of(report, args.trace, spec)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2
    correct, problems, compared = verdict(report, pins)
    for m in problems:
        log(m)
    print(json.dumps({"config": report["config"], "outputs": report["outputs"],
                      "pins_compared": compared,
                      "samples": {k: report[k] for k in ("campaign_s", "setup_s")
                                  if k in report},
                      "trace_file": report.get("trace_file")}))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
