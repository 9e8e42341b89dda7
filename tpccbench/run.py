#!/usr/bin/env python3
"""Builds the TPC-C benchmark from source and runs one workload.

    python3 tpccbench/run.py --workload <tpcc-mix|tpcc-async|tpcc-readonly>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 tpccbench/run.py --self-test

The build goes to .bench_build/tpccbench at the repository root (CMake,
RelWithDebInfo, the kernel compiled from ./src). All arguments are handed to
the tpcc_bench binary, which rejects unknown ones. The database lives in a
fresh directory under .bench_build that is removed however the run ends.
--self-test runs the negative tests of the benchmark's correctness checks.
See tpccbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "tpccbench")
# A run measures at most 60 s plus set-up and checks; anything longer hangs.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("kernel sources (src/) not found next to tpccbench/")
        return False
    os.makedirs(OUT, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run(cmd, data_dir):
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % RUN_TIMEOUT_S)
        proc.kill()
        proc.wait()
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_dir, ignore_errors=True)


def main(argv):
    self_test = argv == ["--self-test"]
    target = "checks_test" if self_test else "tpcc_bench"
    if not build(target):
        log("build failed")
        return 2
    data_dir = os.path.join(OUT, "data-%d" % os.getpid())
    binary = os.path.join(BUILD, target)
    if self_test:
        return run([binary, data_dir], data_dir)
    trace_dir = os.path.join(OUT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # Defaults first: the binary keeps the last value of a repeated flag.
    cmd = [binary, "--data-dir", data_dir, "--trace-dir", trace_dir]
    return run(cmd + argv, data_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
