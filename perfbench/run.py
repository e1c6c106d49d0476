#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds a Release tree under
.bench_build/perfbench (the library sources plus perfbench/src); later calls reuse it. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON result. Extra
arguments (--tiny, --list-metrics) are passed to the binary. Exits nonzero, without a result,
when the checkout has no library sources to build.
"""
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
JOBS = "4"


def source_id():
    """The git commit when there is one, plus a digest of the sources that get built."""
    digest = hashlib.sha256()
    tops = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(ROOT, "src"), HERE]
    for top in tops:
        if os.path.isfile(top):
            paths = [top]
        else:
            paths = sorted(os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            if "__pycache__" in path:
                continue
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return f"{commit}+src-{digest.hexdigest()[:12]}"


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no library sources next to perfbench/ (expected CMakeLists.txt "
                 "and src/ at the repository root)")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout; concurrent runs wait here instead of racing make.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", JOBS],
                       stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except subprocess.CalledProcessError as error:
        sys.exit(f"perfbench: build failed ({error})")
    result = subprocess.run([BINARY, *sys.argv[1:], "--source-id", source_id()], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
