#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py (ctest `bench_gates`).

The *.json files beside this script are quick-mode --json artifacts of the
five gated benches, edited so that every gate passes.  For each row of the
tool's GATES table one mutation below must make exactly that row fail; a
row added to the table without a mutation here fails the test.

Usage: test_bench_gates.py <check_bench_regression.py> <fixture dir>
"""

import contextlib
import copy
import glob
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL, FIXTURES = sys.argv[1], sys.argv[2]


def load_tool():
    spec = importlib.util.spec_from_file_location("check_bench_regression", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()


def bump(case, key, by=1):
    case[key] += by


def setv(case, key, value):
    case[key] = value


# (cases key, row label) -> mutation of that bench's cases object.
MUTATIONS = {
    ("pr4_plan_cases", "plan cases present"): lambda cs: cs.pop("single_count"),
    ("pr4_plan_cases", "triangles across identity/projected/fused3"):
        lambda cs: bump(cs["fused3"], "triangles"),
    ("pr4_plan_cases", "closure digest across identity/projected/fused3"):
        lambda cs: bump(cs["projected_closure"], "checksum"),
    ("pr4_plan_cases", "projection volume reduction (identity/projected)"):
        lambda cs: setv(cs["identity_closure"], "volume_bytes",
                        cs["projected_closure"]["volume_bytes"]),
    ("pr4_plan_cases", "fused3 traffic over the worst single run"):
        lambda cs: setv(cs["fused3"], "volume_bytes", 2 * cs["fused3"]["volume_bytes"]),
    ("pr6_parallel_cases", "thread samples"): lambda cs: setv(cs["web"], "threads", []),
    **{("pr6_parallel_cases", f"{k} across thread counts"):
       (lambda k: lambda cs: bump(cs["web"]["threads"][2], k))(k)
       for k in ("triangles", "volume_bytes", "messages", "list_batches")},
    ("pr6_parallel_cases", "speedup at 4 threads"):
        lambda cs: setv(cs["rmat"], "speedup_4t", 1.5),
    ("pr8_io_cases", "triangles across snapshot codecs"):
        lambda cs: bump(cs["web"], "triangles_compressed"),
    ("pr8_io_cases", "snapshot compression (raw/compressed bytes)"):
        lambda cs: setv(cs["temporal"], "snapshot_bytes_compressed",
                        cs["temporal"]["snapshot_bytes_raw"]),
    ("pr8_io_cases", "compressed load over raw load"):
        lambda cs: setv(cs["web"], "load_seconds_compressed",
                        1.2 * cs["web"]["load_seconds_raw"]),
    ("pr8_io_cases", "ingest+freeze speedup at 4 threads"):
        lambda cs: setv(cs["rmat"], "ingest_seconds_4t", cs["rmat"]["ingest_seconds_1t"]),
    ("pr9_service_cases", "replies mismatching the standalone traversal"):
        lambda cs: setv(cs["rmat"], "mismatches", 1),
    ("pr9_service_cases", "fusion (fused/unfused plans per second)"):
        lambda cs: setv(cs["rmat"], "fused_plans_per_sec", cs["rmat"]["unfused_plans_per_sec"]),
    ("pr9_service_cases", "fused traversals minus plans"):
        lambda cs: setv(cs["rmat"], "fused_traversals", cs["rmat"]["plans"]),
    ("pr9_service_cases", "unfused traversals minus plans"):
        lambda cs: bump(cs["rmat"], "unfused_traversals", -1),
    ("pr9_service_cases", "cache hit speedup (cold/hit latency)"):
        lambda cs: setv(cs["rmat"], "hit_seconds", cs["rmat"]["cold_seconds"] / 5),
    ("pr10_streaming_cases", "delta_1pct case present"): lambda cs: cs.pop("delta_1pct"),
    ("pr10_streaming_cases", "triangles across rebuild/overlay/compacted"):
        lambda cs: bump(cs["delta_10pct"], "triangles_compacted"),
    ("pr10_streaming_cases", "unwindowed volume rebuild/overlay"):
        lambda cs: bump(cs["delta_10pct"], "volume_overlay"),
    ("pr10_streaming_cases", "unwindowed messages rebuild/overlay"):
        lambda cs: bump(cs["delta_10pct"], "messages_overlay"),
    ("pr10_streaming_cases", "windowed fires rebuild/overlay"):
        lambda cs: bump(cs["delta_10pct"], "window_fires"),
    ("pr10_streaming_cases", "ingest+survey speedup over rebuild+survey"):
        lambda cs: setv(cs["delta_1pct"], "incremental_seconds",
                        cs["delta_1pct"]["rebuild_seconds"] / 5),
    ("pr10_streaming_cases", "window volume minus full volume"):
        lambda cs: setv(cs["delta_0.1pct"], "window_volume", cs["delta_0.1pct"]["full_volume"]),
}


def fixtures():
    """{cases key: (path, parsed doc)} for every fixture artifact."""
    out = {}
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        (key,) = [k for k in doc if k.endswith("_cases")]
        out[key] = (path, doc)
    return out


def run_tool(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True)


class GateTable(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.fixtures = fixtures()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, doc, name="artifact.json"):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def evaluate(self, doc):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            key, failures = tool.evaluate(self.write(doc))
        return key, failures, out.getvalue()

    def test_fixtures_pass(self):
        self.assertEqual(set(self.fixtures), tool.GATED_KEYS)
        result = run_tool("--gates", *(path for path, _ in self.fixtures.values()))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_every_row_has_a_mutation(self):
        rows = {(g.cases, g.label) for g in tool.GATES}
        self.assertEqual(len(rows), len(tool.GATES), "row labels must be unique per bench")
        self.assertEqual(rows, set(MUTATIONS))

    def test_each_mutation_fails_exactly_its_row(self):
        for gate in tool.GATES:
            with self.subTest(cases=gate.cases, row=gate.label):
                doc = copy.deepcopy(self.fixtures[gate.cases][1])
                MUTATIONS[(gate.cases, gate.label)](doc[gate.cases])
                key, failures, out = self.evaluate(doc)
                self.assertEqual(key, gate.cases)
                self.assertEqual([g for g, _ in failures], [gate], out)

    def test_hw_threads_rows_skip_below_their_requirement(self):
        hw_rows = [g for g in tool.GATES if g.hw]
        self.assertTrue(hw_rows)
        for gate in hw_rows:
            with self.subTest(cases=gate.cases, row=gate.label):
                doc = copy.deepcopy(self.fixtures[gate.cases][1])
                MUTATIONS[(gate.cases, gate.label)](doc[gate.cases])
                doc["params"]["hw_threads"] = 2
                _, failures, out = self.evaluate(doc)
                self.assertEqual(failures, [], out)
                self.assertIn(f"{gate.label}: skipped (hw_threads=2 < {gate.hw})", out)

    def test_exit_codes(self):
        path, doc = self.fixtures["pr9_service_cases"]
        bad = copy.deepcopy(doc)
        bad["pr9_service_cases"]["rmat"]["mismatches"] = 3
        self.assertEqual(run_tool("--gates", path, "--gates", self.write(bad)).returncode, 1)
        self.assertEqual(run_tool("--gates", self.write({"params": {}})).returncode, 1)
        self.assertEqual(run_tool("--gates", self.write({"pr9_service_cases": {}})).returncode, 1)
        self.assertEqual(run_tool("--gates", os.path.join(self.tmp.name, "absent.json"))
                         .returncode, 2)
        self.assertEqual(run_tool().returncode, 2)

    def test_microbench_trajectory(self):
        base = os.path.join(self.tmp.name, "base")
        cur = os.path.join(self.tmp.name, "cur")
        os.mkdir(base)
        os.mkdir(cur)
        with open(os.path.join(base, "BENCH_pr1.json"), "w") as f:
            json.dump({"new_cases_after_only": {"BM_Case/8": 100.0}}, f)
        for ns, status in ((290.0, 0), (310.0, 1)):
            with open(os.path.join(cur, "micro.json"), "w") as f:
                json.dump({"benchmarks": [{"name": "BM_Case/8/min_time:0.010",
                                           "cpu_time": ns, "time_unit": "ns"}]}, f)
            result = run_tool("--current", cur, "--baseline-dir", base)
            self.assertEqual(result.returncode, status, result.stdout)
        # Five repetitions gate on their median: one 3.5x outlier passes,
        # five 3.5x repetitions fail.
        for reps, status in (([100.0, 350.0, 110.0, 95.0, 105.0], 0), ([350.0] * 5, 1)):
            with open(os.path.join(cur, "micro.json"), "w") as f:
                json.dump({"benchmarks": [
                    {"name": "BM_Case/8/min_time:0.010/repeats:5", "cpu_time": ns,
                     "time_unit": "ns", "run_type": "iteration", "repetition_index": i}
                    for i, ns in enumerate(reps)] + [
                    {"name": "BM_Case/8/min_time:0.010/repeats:5_mean",
                     "cpu_time": sum(reps) / 5, "time_unit": "ns",
                     "run_type": "aggregate", "aggregate_name": "mean"}]}, f)
            result = run_tool("--current", cur, "--baseline-dir", base)
            self.assertEqual(result.returncode, status, result.stdout)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1], verbosity=2)
