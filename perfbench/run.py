#!/usr/bin/env python3
"""Builds `bayonet-served` and the perfbench binary from source, then runs
one benchmark pass and relays its report.

    python3 perfbench/run.py --workload run_cold --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON report. Build output and the
perfbench progress go to standard error. Builds land in `$CARGO_TARGET_DIR`
(default `.bench_build`). Exits non-zero without a report when the build
or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def cargo(args, env):
    done = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: cargo {' '.join(args)} failed")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo(["build", "--release", "--offline", "-p", "bayonet-serve", "--bin", "bayonet-served"], env)
    cargo(["build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"], env)
    release = os.path.join(ROOT, target, "release")
    command = [os.path.join(release, "perfbench"), "--server", os.path.join(release, "bayonet-served")]
    try:
        done = subprocess.run(command + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
