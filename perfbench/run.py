#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # build and run the decorator tests

Run it from the repository root. It builds the engine from ../src and the
benchmark into $CARGO_TARGET_DIR (default .bench_build), then runs one
workload. The last line of stdout is the JSON result; build output goes
to stderr.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
                        "perfbench")


def build(target, tests=False):
    bdir = build_dir()
    if tests or not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        "-DPERFBENCH_TESTS=" + ("ON" if tests else "OFF")],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return bdir


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true")
    a = ap.parse_args()
    try:
        if a.test:
            bdir = build("perfbench_test", tests=True)
            return subprocess.run([os.path.join(bdir, "perfbench_test")],
                                  timeout=600).returncode
        if not a.workload:
            ap.error("--workload is required")
        bdir = build("prism_perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    cmd = [os.path.join(bdir, "prism_perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", os.path.join(bdir, "spans")]
    t0 = time.monotonic()
    for attempt in (1, 2):
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=max(1, RUN_TIMEOUT_S - (time.monotonic() - t0)))
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            return 1
        # The engine can abort when Value Storage GC finds no free chunk
        # (README, "Why the GC watermark, and one rerun"): a known engine
        # gap, seen in a few runs in a hundred, not a figure of this run.
        # One fresh run is allowed, and said on stderr; a second abort
        # fails the run.
        if p.returncode == -signal.SIGABRT and attempt == 1:
            print("perfbench: the engine aborted; running once more",
                  file=sys.stderr)
            continue
        break
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        return p.returncode or 1
    sys.stdout.write(p.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
