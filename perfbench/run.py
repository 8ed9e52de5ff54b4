#!/usr/bin/env python3
"""Build and run the ConGrid benchmark.

    python3 perfbench/run.py --workload case2-chunk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
harness and the program's libraries from source into .bench_build/; later
runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the harness's JSON result. Exits non-zero, without a
result, when the program's sources are missing or the build fails.

    python3 perfbench/run.py --self-test

builds and runs the harness's own tests instead.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("case2-chunk", "case1-farm", "churn-stormy")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, stdout):
    """Run cmd in a process group of its own and return (returncode, out).

    On timeout the whole group is killed (the compiler jobs of a build, the
    section processes of a benchmark run) and waited for; returncode is
    then None."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def run_build(cmd):
    code, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
    if code is None:
        fail("build timed out: " + " ".join(cmd))
    if code != 0:
        fail("build failed: " + " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_build(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
              + targets)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--spans", help="write the traced run's spans (JSONL)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        build(["perfbench_selftest"])
        code, _ = run_group([os.path.join(BUILD_DIR, "perfbench_selftest")],
                            RUN_TIMEOUT_S, sys.stderr)
        sys.exit(1 if code is None else code)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build(["perfbench"])
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    if args.spans:
        cmd += ["--spans", args.spans]
    code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        fail("benchmark run timed out")
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
