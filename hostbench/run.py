#!/usr/bin/env python3
"""Build hostbench from this source tree, then run one workload.

usage:
  python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 hostbench/run.py --self-test

The benchmark is a CMake package of its own (hostbench/CMakeLists.txt)
that compiles the picosim library from the enclosing tree. It is built
into .bench_build/hostbench (RelWithDebInfo, -O3, the tree's own
default) on first use and rebuilt incrementally after that. The last
line of stdout is the result object; build logs go to stderr.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("fig9-sweep", "manycore-sharded", "serve-journaled")


def die(msg, code=2):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Commit (when this is a git checkout) plus a digest of the sources
    the benchmark compiles, so runs of identical code are recognizable
    even outside git."""
    digest = hashlib.sha256()
    for top in ("src", "tools", os.path.join("hostbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return f"{commit or 'no-git'} src-sha256:{digest.hexdigest()[:12]}"


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "spec", "engine.hh"))):
        die(f"no picosim source tree around {HERE}; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                die("cmake configure failed")
        cmd = ["cmake", "--build", BUILD, "-j", "2", "--target", *targets]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed")


def self_test():
    """Unit tests of the benchmark's arithmetic and inputs, then three
    command-level checks: a clean run passes, one corrupted expected
    result fails the command, and a directory holding only the benchmark
    (no picosim sources) fails without printing a result."""
    build(["hostbench", "hostbench_selftest"])
    failures = 0
    if subprocess.run([os.path.join(BUILD, "hostbench_selftest"),
                       os.path.join(ROOT, "BENCHMARK.json")]).returncode:
        failures += 1

    base = [sys.executable, os.path.abspath(__file__), "--workload",
            "serve-journaled", "--seed", "3", "--seconds", "1", "--trace", "0"]
    clean = subprocess.run(base, cwd=ROOT, capture_output=True, text=True)
    ok = clean.returncode == 0 and '"correct": true' in clean.stdout
    print(f"[{'ok' if ok else 'FAIL'}] clean run exits 0 and is correct")
    failures += not ok

    bad = subprocess.run(base + ["--corrupt-expected"], cwd=ROOT,
                         capture_output=True, text=True)
    ok = bad.returncode != 0 and '"correct": false' in bad.stdout
    print(f"[{'ok' if ok else 'FAIL'}] a corrupted expected result exits "
          f"{bad.returncode} with correct=false")
    failures += not ok

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with tempfile.TemporaryDirectory(
            dir=os.path.join(ROOT, ".bench_build")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "hostbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        lone = subprocess.run(
            [sys.executable, "hostbench/run.py", "--workload", "fig9-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        ok = lone.returncode != 0 and '"correct"' not in lone.stdout
        print(f"[{'ok' if ok else 'FAIL'}] without picosim sources the "
              f"command exits {lone.returncode} and prints no result")
        failures += not ok
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="self-test hook: perturb one expected result")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build(["hostbench"])
    os.environ["HOSTBENCH_COMMIT"] = source_stamp()
    binary = os.path.join(BUILD, "hostbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.corrupt_expected:
        argv.append("--corrupt-expected")
    os.chdir(ROOT)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
