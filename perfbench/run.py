#!/usr/bin/env python3
"""Builds and runs the remote-spanner pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload route_dense --seed 3 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with path
dependencies on the repository's crates. It is built offline into
$CARGO_TARGET_DIR (default .bench_build). With --trace 1 the spans of the
traced run are written to $CARGO_TARGET_DIR/perfbench/. Build output goes to
stderr; the last line of stdout is the benchmark's JSON result. The exit code
is non-zero when the build fails or a check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["route_dense", "route_local", "flood_sync", "flood_async"]
# The binary is given this long to finish; a build may take longer.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "rspan-perfbench")
    cmd = [
        binary,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if args.trace:
        out_dir = os.path.join(target, "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans-out", spans]
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: the benchmark ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
