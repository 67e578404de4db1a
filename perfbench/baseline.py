#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes it as JSON.

For each workload, runs the benchmark untraced once per seed and reports
every end-to-end metric's median, quartiles (statistics.quantiles, n=4),
spread ((q3 - q1) / median) and the values themselves; then runs it once
traced on the default seed and records the per-layer numbers. The output
also carries the default and held-out seeds, why each workload was
chosen, and every metric's workloads and what it should move
(`perfbench --metrics`).

Usage, from anywhere inside the repository:

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/BASELINE.json]

A claim about a change runs this on the parent and on the change with
the same arguments, and compares the two files metric by metric against
the bounds in BENCHMARK.json; it is re-checked on the held-out seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]

DEFAULT_SEED = 42
HELD_OUT_SEED = 9001


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(
        cmd + ["--trace", str(trace)], capture_output=True, text=True, check=True
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stderr}")
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench", "BASELINE.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    binary = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")), "release", "perfbench"
    )

    workloads = {}
    for w in bench["workloads"]:
        values = {}
        for seed in args.seeds:
            result = run(w["name"], seed, seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w['name']} seed {seed} done", file=sys.stderr, flush=True)
        traced = run(w["name"], DEFAULT_SEED, seconds, 1)
        workloads[w["name"]] = {
            "why": w["why"],
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summary(values[m["name"]])}
                for m in bench["end_to_end"]
            },
            "per_layer_traced": {
                name: m["value"] for name, m in traced["metrics"].items()
            },
        }

    metrics = subprocess.run(
        [binary, "--metrics"], capture_output=True, text=True, check=True
    ).stdout
    baseline = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": args.seeds,
        "run_seconds": seconds,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "system": platform.system(),
        },
        "workloads": workloads,
        "metrics": json.loads(metrics),
    }
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    for name, w in workloads.items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:7s} {metric:15s} median {s['median']:.6g} spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
