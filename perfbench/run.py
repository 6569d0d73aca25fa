#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload loops --seed 1 --seconds 20 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to standard error; the benchmark's report goes to standard output, and
its last line is the result object. The exit code is the benchmark's, or
the build's when a build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    builds = [
        # The server the `serve` workload starts, as users build it.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "tpm-harness"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"error: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--server-bin", os.path.join(release, "tpm-harness")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
