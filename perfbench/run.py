#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Go module of its own (perfbench/go.mod) that builds the
repository's packages from source. The Go build cache, the binary and every
file a run writes stay under .bench_build/ at the repository root. The last
line of standard output is the benchmark's JSON result; a failed build or run
exits non-zero without one.
"""

import os
import subprocess
import sys

# A run's own phases take at most about twice --seconds plus set-up; this
# bound only stops a hung run.
RUN_TIMEOUT_S = 170


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench-bin")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench_dir,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run(
            [binary, "--out", os.path.join(build, "perfbench")] + sys.argv[1:],
            cwd=root,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
