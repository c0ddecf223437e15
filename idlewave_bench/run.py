#!/usr/bin/env python3
"""Builds idlewave_bench from this checkout and runs one workload.

    python3 idlewave_bench/run.py --workload catalog_campaign --seed 1 \\
        --seconds 25 --trace 0 [--json out.json]

Run it from the root of a checkout. The first run configures and builds
the benchmark (the simulator library from src/ plus idlewave_bench) into
.bench_build/; later runs rebuild only what changed. The program's output
passes through unchanged: its last line is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The exit code is the
program's, or non-zero when the checkout cannot be built.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("catalog_campaign", "decay_long", "verify_corpus", "service_mix")
# A run measures for --seconds and then checks and profiles; anything past
# this is a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources at %s/src; run from a full "
                 "checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Concurrent runs in one checkout share the build; one of them builds.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "idlewave_bench"]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                sys.exit("run.py: build step failed: " + " ".join(step))
    return os.path.join(BUILD, "idlewave_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the full result document")
    args = parser.parse_args()

    exe = build()
    # Sink files, the service socket and the Chrome trace of a traced run;
    # relative to the checkout, which keeps the socket path short.
    scratch = os.path.join(".bench_build", "run", args.workload)
    os.makedirs(os.path.join(ROOT, scratch), exist_ok=True)
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--scratch=" + scratch]
    if args.trace:
        cmd.append("--trace")
    if args.json:
        cmd.append("--json=" + os.path.abspath(args.json))
    sys.stdout.flush()
    # Its own process group, so that a hung run is stopped together with the
    # set-up processes it starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish in %d s" % (args.workload,
                                                     RUN_TIMEOUT_S),
              file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
