#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (its own Cargo package, outside the repository
workspace) offline in release mode into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs `fb-perfbench` with the same arguments. The last
line of stdout is the result JSON; build output and diagnostics go to
stderr. A traced run also writes the benchmark's spans as JSON lines to
`<target dir>/perfbench-trace/<workload>-<seed>.jsonl`. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [
        os.path.join(target, "release", "fb-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        trail_dir = os.path.join(target, "perfbench-trace")
        os.makedirs(trail_dir, exist_ok=True)
        command += ["--trace-file",
                    os.path.join(trail_dir, f"{args.workload}-{args.seed}.jsonl")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
