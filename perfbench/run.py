#!/usr/bin/env python3
"""Build the tgp server and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --spread 5 --workload hot_wire --seconds 20
    python3 perfbench/run.py --describe --seed 1

Run from the root of a checkout. The last line of standard output is the
result object; build output and notes go to standard error. `--spread K`
runs the workload K times with seeds 1..K and prints, per metric, the
median, the quartiles, the interquartile spread as a share of the median
and the max/min ratio.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("cold_solve", "hot_wire", "session_tune")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = (
        ["cargo", "build", "--release", "--offline", "-p", "tgp-cli", "--bin", "tgp"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for step in steps:
        done = subprocess.run(step, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(step)}")


def run_once(binary, target, args, seed, trace):
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--tgp", os.path.join(target, "release", "tgp"), "--work-dir", work]
    return subprocess.run(command, stdout=subprocess.PIPE, text=True)


def spread(binary, target, args):
    runs = []
    for seed in range(1, args.spread + 1):
        done = run_once(binary, target, args, seed, args.trace)
        if done.returncode != 0:
            fail(f"seed {seed} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        runs.append(result)
    print(f"{args.workload}, {args.spread} runs of {args.seconds} s, trace {args.trace}")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        share = (q3 - q1) / med if med else 0.0
        ratio = max(values) / min(values) if min(values) > 0 else float("inf")
        print(f"{name:36} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.2%} {ratio:8.3f}  {first['unit']}")
    failed = {r["failed"] / r["attempted"] for r in runs}
    print(f"correct in every run: {all(r['correct'] for r in runs)}; failed shares: {sorted(failed)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="K")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()
    if not args.describe and not args.workload:
        fail("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
            os.path.join(root, "crates", "cli")):
        fail("run from the root of a tgp checkout (Cargo.toml and crates/cli not found)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, target)
    binary = os.path.join(target, "release", "perfbench")

    if args.describe:
        sys.exit(subprocess.run([binary, "--describe", "--seed", str(args.seed)]).returncode)
    if args.spread:
        spread(binary, target, args)
        return
    done = run_once(binary, target, args, args.seed, args.trace)
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
