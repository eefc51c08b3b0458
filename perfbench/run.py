#!/usr/bin/env python3
"""Build and run the FlatStore wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sync-kv --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build), with the Go build
cache, module cache and toolchain config kept there too, so nothing is
written outside the checkout. The built program then replaces this
process, so its exit code and signals are its own.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, out)
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomod"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR="",
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    os.chdir(ROOT)
    os.execve(binary, [binary, "--out", out] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
