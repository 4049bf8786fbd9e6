#!/usr/bin/env python3
"""Build the host-clock benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload coda-commit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Every argument is passed to the OCaml program (perfbench/main.ml); see
perfbench/README.md for the workloads and metrics. The build uses dune
with its shared cache disabled, so it reads and writes only below the
current directory (in _build/). A failed build exits with status 2 and
prints no result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./perfbench/main.exe"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", target],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
