#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe and
bin/sofia_cli.exe with dune (inside the checkout's _build), then runs the
workload; the last line of standard output is the result object. Exits
non-zero without a result when the build fails.
"""
import os
import shutil
import subprocess
import sys

TARGETS = ["./perfbench/main.exe", "./bin/sofia_cli.exe"]


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    root = os.getcwd()
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ".", "--display", "quiet"] + TARGETS,
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    cli = os.path.join(root, "_build", "default", "bin", "sofia_cli.exe")
    os.execv(exe, [exe] + sys.argv[1:] + ["--cli", cli])


if __name__ == "__main__":
    main()
