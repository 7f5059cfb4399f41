#!/usr/bin/env python3
"""Build the ujam daemon and the benchmark from source, then run one
benchmark invocation.

    python3 perfbench/run.py --workload <compile_suite|serve_hot|serve_mixed> \
        --seed N --seconds S --trace <0|1>

Run it from the repository root.  Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`).  Cargo's output goes to stderr, so the last
line of standard output is the benchmark's JSON result.  If either build
fails, the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "ujam"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: {' '.join(cmd)} failed ({done.returncode})")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--ujam", os.path.join(release, "ujam")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
