#!/usr/bin/env python3
"""Build the benchmark binary from source, then run one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload boot_bnsd|io_z_lossy|campaign_mix \
      --seed N --seconds S --trace 0|1

The build lives in .bench_build/perfbench under the repository root and is
incremental, so only the first run of a checkout compiles. Build output
goes to stderr; stdout carries the benchmark's report, whose last line is
one JSON object. Chrome traces of --trace 1 runs land in
.bench_build/perfbench/traces. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dth_perfbench")


def build():
    """Configure (once) and build the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "dth_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    cmd = [BINARY] + sys.argv[1:] + [
        "--trace-dir", os.path.join(BUILD, "traces")]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
