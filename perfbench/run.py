#!/usr/bin/env python3
"""Builds the broker benchmark from source and runs one workload.

    python3 perfbench/run.py --workload quote-mix --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build): CMake + Ninja, Release, the libraries under src/
plus perfbench/src. The last line of standard output is the run's JSON
result. Other modes:

    python3 perfbench/run.py --selftest    # checker self-tests
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "rpc", "server.h")):
        sys.stderr.write("run.py: no src/ next to perfbench/; run from a full "
                         "checkout of the repository\n")
        sys.exit(2)
    if not os.path.isfile(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 2
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(build_dir, "checks_test")],
                              env=env).returncode
    proc = subprocess.run([os.path.join(build_dir, "broker_bench")] + argv,
                          cwd=ROOT, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
