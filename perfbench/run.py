#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one benchmark workload.

    python3 perfbench/run.py --workload <paper_figs|open_loop|cluster> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). With --trace 0 the untraced binary prints the
end-to-end metrics; with --trace 1 the traced binary (counting allocator,
wall-time spans) prints the per-layer metrics and writes its Chrome trace
and layer ledger under .bench_out/. The last line of standard output is
the result as one JSON object. A build or run failure exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_figs", "open_loop", "cluster")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One malloc arena: the executor starts a fresh worker thread per
    # experiment, and the arena each lands in otherwise moves the peak
    # resident set by up to 40% from run to run.
    env = dict(os.environ, CARGO_NET_OFFLINE="true", MALLOC_ARENA_MAX="1")
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target

    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = "perfbench-traced" if args.trace else "perfbench"
    command = [
        os.path.join(target, "release", binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
