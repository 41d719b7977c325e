#!/usr/bin/env python3
"""Build and run the cascade benchmark from the root of a checkout.

    python3 perfbench/run.py --workload edge-small --seed 1 --seconds 10 --trace 0

Builds the Go program in this directory (its go.mod points at the
repository root) into .bench_build/ and runs it with the given arguments.
Everything the build and the run write stays under .bench_build/: the Go
build cache, temporary files and the gateways' disk spill tiers. The last
line of standard output is the run's JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTELEMETRY="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    for d in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {built.returncode})")
    run = subprocess.run([binary, *sys.argv[1:], "--dir", os.path.join(build, "scratch")], cwd=root, env=env)
    sys.exit(run.returncode if run.returncode > 0 else (1 if run.returncode else 0))


if __name__ == "__main__":
    main()
