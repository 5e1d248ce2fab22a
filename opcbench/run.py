#!/usr/bin/env python3
"""Build and run the opckit OPC benchmark (see README.md).

    python3 opcbench/run.py --workload flat_cold --seed 1 --seconds 30 --trace 0

Builds the benchmark (and the opckit libraries it links) from the
sources next to this directory into the build root ($CARGO_TARGET_DIR,
default .bench_build), runs one measured run, and passes the driver's
standard output through: its last line is the JSON result. Build output
and diagnostics go to standard error.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flat_cold", "daemon_eco", "cell_escalate")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"opcbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "opcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"opckit sources not found under {ROOT}/src")
    if not shutil.which("cmake"):
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", build_dir, "--target", "opcbench",
                    "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, "opcbench")


def run_build_step(cmd):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_root, "opcbench"))
    # Relative to the build root, where the driver runs: the daemon
    # workload listens on a unix socket under the work dir, and socket
    # paths are limited to ~100 bytes.
    work_rel = f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir = os.path.join(build_root, work_rel)
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_rel, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=build_root, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("opcbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
