#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to standard error, so the last
line of standard output is the benchmark's result line.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(target, "release", "perfbench")
    sys.exit(subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
