#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload jit_spec --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build) with CMake;
the first run builds, later runs reuse the build. The last line of standard
output is the JSON result of the benchmark binary; the exit status is the
binary's (1 on a wrong output), or 3 when the build fails.

The uir_service settings (--uir-rate, --uir-ladder, --uir-limit-us) and the
host class the committed numbers come from (--host-class) are fixed in
BENCHMARK.json's command line.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TYPE = "Release"
# Wall-clock limits of one invocation: the first one in a checkout
# configures and builds, later ones reuse the build.
FIRST_RUN_LIMIT_S = 880
RUN_LIMIT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-" + BUILD_TYPE.lower())


def build(bdir, deadline):
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    cache = os.path.join(bdir, "CMakeCache.txt")
    configure = not os.path.exists(cache)
    steps = []
    if configure:
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "perfbench_traced", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())
                                    ).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = None
                log.write("\nperfbench: %s\n" % e)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                # A failed configure leaves no usable cache behind.
                if configure and os.path.exists(cache):
                    os.remove(cache)
                return False
    return True


def host_class(bdir):
    compiler = "unknown"
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"], capture_output=True,
                                         text=True, timeout=30).stdout
                    compiler = out.splitlines()[0] if out else cxx
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "nproc=%d cxx=%s build=%s" % (os.cpu_count() or 1, compiler, BUILD_TYPE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["jit_spec", "aot_large", "uir_service"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--uir-rate", help="uir_service nominal rate, jobs/s")
    ap.add_argument("--uir-ladder", help="uir_service rates for max_rate_jps")
    ap.add_argument("--uir-limit-us", help="uir_service p99 limit, us")
    ap.add_argument("--host-class", default="unrecorded",
                    help="host class the recorded baseline was measured on")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run only the benchmark's self-tests")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    start = time.monotonic()
    bdir = build_dir()
    first = not os.path.exists(os.path.join(bdir, "perfbench_traced"))
    deadline = start + (FIRST_RUN_LIMIT_S if first else RUN_LIMIT_S)
    if not build(bdir, deadline):
        return 3
    # Only the traced binary counts allocations (see src/main.cpp).
    binary = os.path.join(bdir,
                          "perfbench_traced" if args.trace else "perfbench")
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode

    print("# host class: %s (baseline recorded on %s)" %
          (host_class(bdir), args.host_class))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for flag in ("uir_rate", "uir_ladder", "uir_limit_us"):
        if getattr(args, flag) is not None:
            cmd += ["--" + flag.replace("_", "-"), getattr(args, flag)]
    if args.trace:
        traces = os.path.join(os.path.dirname(bdir), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run stopped at its %.0f s time limit\n" %
                         (time.monotonic() - start))
        return 4
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
