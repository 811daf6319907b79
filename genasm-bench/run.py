#!/usr/bin/env python3
"""Entry point of BENCHMARK.json: build the program and the harness from
source, then hand every argument to the harness.

Run from the root of a checkout:
    python3 genasm-bench/run.py --workload clr-long --seed 1 --seconds 15 --trace 0
    python3 genasm-bench/run.py run --seed 1
    python3 genasm-bench/run.py compare BEFORE.json AFTER.json
"""
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    env = dict(os.environ)
    # One target directory for both builds, so `genasm` and
    # `genasm-bench` end up next to each other.
    target = env.setdefault("CARGO_TARGET_DIR", "target")
    builds = [
        # The program under test: the shipped `genasm` binary.
        ["cargo", "build", "--release", "--offline", "-p", "genasm-cli"],
        # The harness, a package of its own outside the workspace.
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("genasm-bench", "Cargo.toml")],
    ]
    for build in builds:
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.stderr.write("genasm-bench: build failed: %s\n" % " ".join(build))
            return 1
    harness = os.path.join(target, "release", "genasm-bench")
    return subprocess.run([harness] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
