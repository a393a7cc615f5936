#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload rollup|tc|catalog|ivm \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/main.exe with dune
(build output goes to stderr), then runs it with the same arguments plus
the git sha and dirty flag when the root is a git checkout. The last line
of standard output is the result as one JSON object; the exit code is the
program's, or non-zero when the build fails or the root is not a
checkout of this repository.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def git_meta():
    if not os.path.isdir(".git"):
        return "none", "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"],
                                capture_output=True, text=True,
                                timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "unknown"
    return sha or "unknown", "1" if status.strip() else "0"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: dune-project and lib/ not found; "
                         "run from the repository root\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, timeout=870)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return 2
    if build.returncode != 0:
        return build.returncode
    sha, dirty = git_meta()
    try:
        run = subprocess.run(
            [EXE] + sys.argv[1:] + ["--git-sha", sha, "--dirty", dirty],
            timeout=175)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded 175 s\n")
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
