#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (and with it the mempool
library from src/) as a Release build in .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The socket and trace files of a run
are written to the same build directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "mempool_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "mempool_perfbench")
    # Relative, so the server's AF_UNIX socket path stays far below the
    # 108-byte sun_path limit however deep the checkout sits.
    out_dir = os.path.relpath(BUILD)
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--out-dir", out_dir])


if __name__ == "__main__":
    sys.exit(main())
