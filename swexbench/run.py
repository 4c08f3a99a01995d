#!/usr/bin/env python3
"""Build and run the swex benchmark.

    python3 swexbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a swex checkout. The first run configures the
simulator's own CMake project in Release mode with the benchmark
package grafted on (swexbench/attach.cmake) and builds the
``swexbench`` program; later runs only re-check the build. Build output
goes to standard error; the build directory is ``$CARGO_TARGET_DIR``
(default ``.bench_build``), which also holds each run's scratch cache
directory and the traced run's Chrome trace-event JSON.

Workloads (see swexbench/README.md):
  directory_figs  Figure 4 (6 apps x 8 points, 64 nodes) + Figure 5 (TSP, 256 nodes)
  snoop_bus       the six apps on the 64-node snooping bus x MESI/MOESI/MESIF/Dragon
  warm_resweep    a 64-node WORKER grid re-swept from a cold-filled result cache

Every argument is passed through to that program; the last line of
standard output is the result JSON. Exit status: 0 when every cell
passed the correctness gate, 1 when one failed, 2 on a usage or build
error (including a directory that holds no simulator sources).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print("swexbench: " + msg, file=sys.stderr)
    return 2


def build(root, build_root):
    bdir = os.path.join(build_root, "swexbench-cmake")
    exe = os.path.join(bdir, "swexbench", "swexbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", root, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_swex_INCLUDE=" +
                      os.path.join(HERE, "attach.cmake")])
    steps.append(["cmake", "--build", bdir, "--target", "swexbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            return None, "cannot run %s: %s" % (cmd[0], e)
        if rc != 0:
            return None, "build step failed (%d): %s" % (rc, " ".join(cmd))
    return exe, None


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main(args):
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(root, "src", "exp", "runner.hh"))):
        return fail("no swex sources in %s: run from the root of a "
                    "checkout" % root)
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe, err = build(root, build_root)
    if err:
        return fail(err)

    workload = option(args, "--workload", "none")
    seed = option(args, "--seed", "0")
    extra = []
    if "--work-dir" not in args:
        extra += ["--work-dir", os.path.join(
            build_root, "swexbench-work-%d" % os.getpid())]
    if "--trace-out" not in args:
        extra += ["--trace-out", os.path.join(
            build_root, "traces", "%s-seed%s.json" % (workload, seed))]
    sys.stdout.flush()
    proc = subprocess.Popen([exe] + args + extra)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
