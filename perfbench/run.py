#!/usr/bin/env python3
"""Builds and runs the OFMF end-to-end benchmark.

    python3 perfbench/run.py --workload bb_lifecycle|hot_read|fleet_sweep|all \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the OFMF libraries from
../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset, runs the arithmetic self-tests, then runs one measurement.
The last line of stdout is the JSON result; the exit status is non-zero when
the build, the self-tests or a correctness check fails. `--workload all` runs
the three workloads in turn, for reading: each report ends in its own JSON
line.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["bb_lifecycle", "hot_read", "fleet_sweep"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_DEADLINE_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when the checkout is a git repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "perfbench_selftest", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the OFMF sources (src/) are not next to perfbench/; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    work_dir = os.path.join(build_dir, "work")

    build(build_dir)
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(selftest.stdout)
    if selftest.returncode != 0:
        fail("arithmetic self-tests failed")

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        command = [os.path.join(build_dir, "perfbench"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work-dir", work_dir, "--source-id", source_id()]
        started = time.monotonic()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("measurement did not finish within %d s" % RUN_DEADLINE_S)
        finally:
            shutil.rmtree(os.path.join(work_dir, "stores"), ignore_errors=True)
        sys.stdout.write(out)
        sys.stdout.flush()
        if proc.returncode != 0:
            print("perfbench: %s exit %d after %.1f s" %
                  (workload, proc.returncode, time.monotonic() - started), file=sys.stderr)
            status = proc.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
