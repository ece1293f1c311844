#!/usr/bin/env python3
"""Build the etap benchmark from source and run one workload.

Usage, from the root of an etap source tree:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Workloads: campaign, recheck, audit, serve. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to standard error. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no etap source tree (dune-project, lib/) around "
              + HERE, file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
