#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run builds perfbench/bench.exe (release profile) into
.bench_build/; later runs reuse the build. The last line of standard
output is the JSON result described in BENCHMARK.json. The workloads,
their reasons and the metric definitions are listed there too.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: dune-project or lib/ is missing; run from the root "
            "of a full checkout\n"
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    # Replace this process: the benchmark is the only process left running.
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
