#!/usr/bin/env python3
"""Tests of the swex benchmark itself, on small grids.

    python3 swexbench/test_swexbench.py

Run from the root of a checkout. Builds the benchmark program through run.py
(into $CARGO_TARGET_DIR, default .bench_build) on first use. Checks
that every metric BENCHMARK.json names is printed with its unit, that
the traced run's counters repeat exactly, and that the correctness
gate trips on a corrupted cache entry and on a wrong expected digest.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join(ROOT, "swexbench", "run.py")]
WORKLOADS = ["directory_figs", "snoop_bus", "warm_resweep"]
COUNTS = ["sim.events", "core.home.traps", "mem.cache.accesses",
          "net.messages", "snoop.bus.transactions", "exp.cache.hits"]


def bench(workload, trace, *extra):
    """Run a smoke grid; (exit code, stdout lines, result or None)."""
    p = subprocess.run(RUN + ["--workload", workload, "--seed", "0",
                              "--seconds", "1", "--trace", str(trace),
                              "--smoke"] + list(extra),
                       cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, lines, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, key):
        wanted = {m["name"]: m["unit"] for m in spec()[key]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, res = bench(w, trace)
                self.assertEqual(rc, 0, "\n".join(lines))
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = res["metrics"]
                self.assertEqual(set(got), set(wanted))
                for name, unit in wanted.items():
                    self.assertEqual(got[name]["unit"], unit, name)
                    self.assertIsInstance(got[name]["value"], (int, float))
                    # The human-readable block names it with its unit.
                    self.assertTrue(any(
                        l.split()[:1] == [name] and l.split()[-1] == unit
                        for l in lines), name)
                for name in ("cells", "cells_failed"):
                    self.assertTrue(any(
                        l.split()[:1] == [name] and l.split()[-1] == "count"
                        for l in lines), name)
                yield w, got, lines

    def test_end_to_end(self):
        for w, got, lines in self.check(0, "end_to_end"):
            self.assertGreater(got["wall_s"]["value"], 0)
            self.assertTrue(any(l.startswith("digest: ") for l in lines))
            self.assertTrue(any(l.startswith("host speed: ") for l in lines))

    def test_per_layer(self):
        for w, got, lines in self.check(1, "per_layer"):
            v = {k: m["value"] for k, m in got.items()}
            if w == "snoop_bus":
                self.assertEqual(v["core.home.traps"], 0)
                self.assertGreater(v["snoop.bus.transactions"], 0)
            if w == "directory_figs":
                self.assertGreater(v["core.home.traps"], 0)
                self.assertGreater(v["net.messages"], 0)
            if w == "warm_resweep":
                self.assertEqual(v["exp.cache.hit_ratio"], 1.0)
                self.assertGreater(v["exp.cache.stores"], 0)
            trace = [l.split()[-1] for l in lines if l.startswith("trace: ")]
            self.assertEqual(len(trace), 1)
            with open(trace[0]) as f:
                events = json.load(f)["traceEvents"]
            tracks = {e["args"]["name"] for e in events
                      if e["name"] == "thread_name"}
            self.assertIn("bench", tracks)
            self.assertTrue(any(e["ph"] == "X" for e in events))


class CountsRepeat(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [bench(w, 1)[2]["metrics"] for _ in range(2)]
                for name in COUNTS:
                    self.assertEqual(runs[0][name]["value"],
                                     runs[1][name]["value"], name)


class GateTrips(unittest.TestCase):
    def test_flipped_cache_byte(self):
        rc, lines, res = bench("warm_resweep", 0, "--perturb", "cache-byte")
        self.assertEqual(rc, 1)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)

    def test_altered_expected_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, res = bench(w, 0, "--expect-digest",
                                       "0123456789abcdef")
                self.assertEqual(rc, 1)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], res["attempted"])

    def test_right_expected_digest_passes(self):
        rc, lines, res = bench("snoop_bus", 0)
        digest = [l.split()[1] for l in lines if l.startswith("digest: ")][0]
        rc, lines, res = bench("snoop_bus", 0, "--expect-digest", digest)
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])


class Refusals(unittest.TestCase):
    def test_usage_error_prints_no_result(self):
        rc, lines, res = bench("no_such_workload", 0)
        self.assertEqual(rc, 2)
        self.assertIsNone(res)

    def test_directory_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no result.
        build_root = os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        bare = os.path.join(build_root, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "swexbench"),
                            os.path.join(bare, "swexbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "b"))
            p = subprocess.run(
                [sys.executable, "swexbench/run.py", "--workload",
                 "snoop_bus", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
