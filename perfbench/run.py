#!/usr/bin/env python3
"""Builds the host-speed benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness (`perfbench/`, a Cargo package
of its own) and the `campaign_server` / `campaign_supervisor` binaries it
spawns are built in release mode into `$CARGO_TARGET_DIR` (default
`perfbench/target`); build output goes to stderr, so the last line of
stdout is the harness's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        print("perfbench: the repository's crates are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml"),
             "-p", "perfbench", "-p", "fac-bench",
             "--bin", "perfbench",
             "--bin", "campaign_server",
             "--bin", "campaign_supervisor"]
    built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    bins = os.path.join(target, "release")
    harness = [os.path.join(bins, "perfbench")] + sys.argv[1:] + ["--bins", bins]
    sys.stdout.flush()
    return subprocess.run(harness, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
