#!/usr/bin/env python3
"""Builds `case_tool` and the benchmark from source, runs one workload,
and checks its result line against BENCHMARK.json.

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. Build outputs go to
$CARGO_TARGET_DIR (default `.bench_build`), run files to `.bench_run`.
The last line of standard output is the result object.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, target, args):
    command = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"`{' '.join(command)}` failed with exit code {done.returncode}")


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(line, expected):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        raise ValueError("a metric value is not a number")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("Cargo.toml", "crates/service/Cargo.toml", "perfbench/Cargo.toml", "BENCHMARK.json"):
        if not (root / needed).is_file():
            fail(f"run from the root of a checkout: {needed} is missing")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else root / target

    build(root, target, ["-p", "depcase-service", "--bin", "case_tool"])
    build(root, target, ["--manifest-path", "perfbench/Cargo.toml"])

    command = [
        str(target / "release" / "depcase-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server", str(target / "release" / "case_tool"),
        "--work", str(root / ".bench_run"),
    ]
    # Its own process group, so a timeout or a stop signal also stops
    # the servers it started.
    run = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if run.returncode != 0:
        fail(f"the benchmark exited with code {run.returncode}")
    try:
        check(lines[-1], expected_metrics(root, args.trace == "1"))
    except (ValueError, KeyError, TypeError) as e:
        fail(f"bad result line ({e}): {lines[-1][:300]}")
    print(lines[-1])


if __name__ == "__main__":
    main()
