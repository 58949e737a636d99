#!/usr/bin/env python3
"""Unit tests for tools/bench_record.py on synthetic perfbench result dirs.

    python3 tools/test_bench_record.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)

import bench_record  # noqa: E402

BETTER = {"allocs_per_s": "higher", "latency_us": "lower"}


def write_runs(target, workload, runs):
    """Writes one result file per `{seed: {metric: value}}` entry of `runs`."""
    directory = os.path.join(target, "perfbench")
    os.makedirs(directory, exist_ok=True)
    for seed, metrics in runs.items():
        record = {
            "host": {"cpus": 2},
            "args": {"workload": workload, "seed": seed, "seconds": 1, "trace": 0},
            "result": {
                "correct": True,
                "metrics": {name: {"value": value, "unit": "u"}
                            for name, value in metrics.items()},
            },
        }
        path = os.path.join(directory, f"result-{workload}-{seed}-trace0.json")
        with open(path, "w") as f:
            json.dump(record, f)


def build(parent, change):
    """build_entry on two dirs; returns (entry, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        entry = bench_record.build_entry(
            bench_record.load_results(parent, 0),
            bench_record.load_results(change, 0),
            BETTER, 0, "")
    return entry, err.getvalue()


class BuildEntryTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.parent = os.path.join(self.tmp.name, "parent")
        self.change = os.path.join(self.tmp.name, "change")

    def tearDown(self):
        self.tmp.cleanup()

    def metrics_of(self, entry):
        return sorted(r["metric"] for r in entry["rows"])

    def test_metric_missing_from_a_later_parent_run_is_skipped(self):
        write_runs(self.parent, "w", {
            1: {"allocs_per_s": 10.0, "latency_us": 2.0},
            2: {"allocs_per_s": 11.0},
        })
        write_runs(self.change, "w", {
            1: {"allocs_per_s": 10.5, "latency_us": 2.1},
            2: {"allocs_per_s": 10.8, "latency_us": 2.2},
        })
        entry, err = build(self.parent, self.change)
        self.assertEqual(self.metrics_of(entry), ["allocs_per_s"])
        self.assertIn("w latency_us missing from a parent run; skipped", err)

    def test_metric_reported_only_by_change_runs_is_skipped(self):
        write_runs(self.parent, "w", {1: {"allocs_per_s": 10.0}, 2: {"allocs_per_s": 11.0}})
        write_runs(self.change, "w", {
            1: {"allocs_per_s": 10.5, "latency_us": 2.1},
            2: {"allocs_per_s": 10.8, "latency_us": 2.2},
        })
        entry, err = build(self.parent, self.change)
        self.assertEqual(self.metrics_of(entry), ["allocs_per_s"])
        self.assertIn("w latency_us missing from a parent run; skipped", err)

    def test_metric_missing_from_a_change_run_is_skipped(self):
        write_runs(self.parent, "w", {1: {"allocs_per_s": 10.0, "latency_us": 2.0}})
        write_runs(self.change, "w", {1: {"allocs_per_s": 10.5}})
        entry, err = build(self.parent, self.change)
        self.assertEqual(self.metrics_of(entry), ["allocs_per_s"])
        self.assertIn("w latency_us missing from a change run; skipped", err)

    def test_dir_compared_with_itself_flags_nothing(self):
        write_runs(self.parent, "tcp_pipelined", {
            1: {"allocs_per_s": 10.0, "latency_us": 2.0, "net.wall_ns": 5.0},
            2: {"allocs_per_s": 12.0, "latency_us": 1.5, "net.wall_ns": 6.0},
            3: {"allocs_per_s": 9.0, "latency_us": 2.5, "net.wall_ns": 4.0},
        })
        script = os.path.join(TOOLS, "bench_record.py")
        for extra in ([], ["--bounds"]):
            done = subprocess.run(
                [sys.executable, script, self.parent, self.parent, "--compare", *extra],
                capture_output=True, text=True, check=False)
            self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
            self.assertIn("bench_record: 0 of 3 rows flagged", done.stdout)


class ClaimTest(unittest.TestCase):
    """The claim rule: ≥ 10 pairs, ≥ 9 in 10 won (ties count for neither
    side), and a median gain beyond the parent's q3 - q1."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.parent = os.path.join(self.tmp.name, "parent")
        self.change = os.path.join(self.tmp.name, "change")

    def tearDown(self):
        self.tmp.cleanup()

    def claim(self, parent_values, change_values, metric="latency_us"):
        """(unmet count, printed verdict) of one claim over paired seeds."""
        write_runs(self.parent, "w", {s: {metric: v} for s, v in enumerate(parent_values)})
        write_runs(self.change, "w", {s: {metric: v} for s, v in enumerate(change_values)})
        entry, _ = build(self.parent, self.change)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            unmet = bench_record.check_claims(entry, [f"w/{metric}"], BETTER)
        return unmet, out.getvalue()

    def test_clear_gain_in_every_pair_is_met(self):
        parent = [23.0 + 0.1 * i for i in range(10)]
        unmet, out = self.claim(parent, [v - 2.0 for v in parent])
        self.assertEqual(unmet, 0, out)
        self.assertIn("claim w/latency_us: met", out)

    def test_one_lost_pair_in_ten_is_met(self):
        parent = [23.0 + 0.1 * i for i in range(10)]
        change = [v - 2.0 for v in parent]
        change[3] = parent[3] + 1.0
        unmet, out = self.claim(parent, change)
        self.assertEqual(unmet, 0, out)

    def test_ties_count_for_neither_side(self):
        parent = [23.0 + 0.1 * i for i in range(10)]
        change = [v - 2.0 for v in parent]
        change[0], change[1] = parent[0], parent[1]
        unmet, out = self.claim(parent, change)
        self.assertEqual(unmet, 1)
        self.assertIn("won 8 of 10 pairs, fewer than 9 in 10", out)

    def test_gain_within_the_parent_spread_is_not_met(self):
        parent = [20.0 + i for i in range(10)]
        unmet, out = self.claim(parent, [v - 0.5 for v in parent])
        self.assertEqual(unmet, 1)
        self.assertIn("does not exceed the parent's q3 - q1", out)

    def test_fewer_than_ten_pairs_is_not_met(self):
        parent = [23.0 + 0.1 * i for i in range(9)]
        unmet, out = self.claim(parent, [v - 2.0 for v in parent])
        self.assertEqual(unmet, 1)
        self.assertIn("9 pairs, fewer than 10", out)

    def test_direction_follows_the_metric(self):
        parent = [2.0e6 + 1e4 * i for i in range(10)]
        unmet, _ = self.claim(parent, [v + 2e5 for v in parent], metric="allocs_per_s")
        self.assertEqual(unmet, 0)
        unmet, out = self.claim(parent, [v - 2e5 for v in parent], metric="allocs_per_s")
        self.assertEqual(unmet, 1)
        self.assertIn("won 0 of 10", out)

    def test_unmet_claim_exits_1_and_met_claim_exits_0(self):
        parent = [23.0 + 0.1 * i for i in range(10)]
        write_runs(self.parent, "w", {s: {"latency_us": v} for s, v in enumerate(parent)})
        write_runs(self.change, "w", {s: {"latency_us": v - 2.0} for s, v in enumerate(parent)})
        script = os.path.join(TOOLS, "bench_record.py")
        for a, b, code in ((self.parent, self.change, 0), (self.change, self.parent, 1)):
            done = subprocess.run(
                [sys.executable, script, a, b, "--claim", "w/latency_us"],
                capture_output=True, text=True, check=False)
            self.assertEqual(done.returncode, code, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main()
