#!/usr/bin/env python3
"""Builds nada_bench from the sources next to this directory, then runs it.

    python3 nada_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
into .bench_build/cmake (a few minutes); later calls rebuild only what
changed. Build output goes to stderr, so the benchmark's last line on
stdout stays its JSON result. Every argument is passed to the binary
unchanged (see nada_bench.cpp for the full set, including `compare`).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "cmake")


def build(command):
    subprocess.run(command, stdout=sys.stderr, check=True)


def main():
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        print("nada_bench: no repository sources next to " + HERE +
              "; nothing to build", file=sys.stderr)
        return 2
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            build(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
        build(["cmake", "--build", BUILD, "--target", "nada_bench",
               "-j", str(len(os.sched_getaffinity(0)))])
    except subprocess.CalledProcessError as error:
        print("nada_bench: build failed: " + str(error), file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "nada_bench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
