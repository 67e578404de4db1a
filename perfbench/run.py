#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from anywhere inside the repository:

    python3 perfbench/run.py --workload <lookup|fsmeta|scale|native|all> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark package (perfbench/Cargo.toml) is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
then run from the repository root with the same arguments. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. A failed build exits non-zero without a result.

`--workload all` runs every workload of BENCHMARK.json in a process of
its own, so that each one's peak_rss_mb is its own peak and not the
largest of the workloads before it, and merges the results into one JSON
line whose metric names carry the workload as a prefix.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_all(binary, args, env):
    """Runs each workload in its own process; returns the exit code."""
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    i = args.index("--workload")
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        argv = args[: i + 1] + [name] + args[i + 2 :]
        out = subprocess.run(
            [binary, *argv], env=env, stdout=subprocess.PIPE, text=True, check=False
        )
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {out.returncode}", file=sys.stderr)
            code = out.returncode or 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    if code == 0:
        print(json.dumps(merged))
    return code


def main() -> int:
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join("perfbench", "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    args = sys.argv[1:]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        return run_all(binary, args, env)
    return subprocess.run([binary, *args], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
