#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec-noisy --seed 1 --seconds 15 --trace 0

The Go build cache, the binary and the run's scratch files all live in
.bench_build/ at the checkout root, so nothing is written outside the
checkout. Arguments are passed to the benchmark binary unchanged; the
last line it prints is the JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "tmp", "gopath", "out"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        TMPDIR=os.path.join(build, "tmp"),
        GOWORK="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, *sys.argv[1:], "--out", os.path.join(build, "out")]
    sys.stdout.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
