#!/bin/sh
# Build the tier-1 test suite under ASan, UBSan, and TSan and run it
# under each, in separate build trees so sanitized and plain objects
# never mix. TSan matters since the sweep tier went parallel: the
# stress label runs the (app x protocol x seed) grid with --jobs 4,
# so any cross-run shared state in the simulator shows up as a race.
# The stress label also carries the fault-injection sweep, the
# snooping machine-model grid (stress_snoop: 4 bus protocols x 2
# arbitration disciplines over the sharing microbenchmarks, auditor
# attached), the content-addressed result cache leg (stress_cache:
# cold store then warm re-sweep against one scratch cache, so
# concurrent entry stores and the lock-free counters race under TSan),
# and the --jobs + snoop + cache determinism gate (sweep_determinism);
# SWEX_DET_SEEDS keeps the gates' seed counts small enough for
# sanitized binaries. The tier-1 pass also carries test_serve, which
# runs a real multi-client server in-process — per-connection reader
# threads feeding the shared run pool, server-side sweeps, chunked
# resume, overload shedding, idle timeouts, and SIGTERM drain — so the
# serve path's connection-lifetime discipline is TSan-checked on every
# matrix run.
# The stress label adds stress_serve, the socket-level chaos harness
# (torn writes, garbage, resets, stalled peers, kill-and-reconnect
# resumable sweeps over Unix and TCP); SWEX_SERVE_CONNS scales its
# connection count down the same way SWEX_DET_SEEDS scales the
# digest gates.
# Usage:
#
#   tools/ci_sanitize.sh [builddir-prefix]
#
# The prefix defaults to build-san; the script creates
# <prefix>-address/, <prefix>-undefined/, and <prefix>-thread/ next
# to the source tree. Exits non-zero on the first configure, build,
# or test failure.
set -eu

src_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
prefix=${1:-build-san}

for san in address undefined thread; do
    build_dir="${prefix}-${san}"
    echo "== ${san}: configuring ${build_dir}"
    cmake -S "${src_dir}" -B "${build_dir}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSWEX_SANITIZE="${san}"
    echo "== ${san}: building"
    cmake --build "${build_dir}" -j "$(nproc 2>/dev/null || echo 4)"
    echo "== ${san}: running tier-1 tests"
    ctest --test-dir "${build_dir}" --output-on-failure
    echo "== ${san}: running the audited protocol stress sweep"
    SWEX_DET_SEEDS=50 SWEX_SERVE_CONNS=48 \
        ctest --test-dir "${build_dir}" --output-on-failure -L stress
done
echo "== sanitizer matrix passed"
