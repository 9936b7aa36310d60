#!/usr/bin/env python3
"""Tests of the campaign benchmark's own checks.

    python3 perfbench/test_run.py

The unit tests need nothing built. The end-to-end tests build
perfbench_campaign into .bench_build/ and run the one-point `quick`
grid (TCP-PRESS x app-crash), about a minute in all.
"""

import json
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCRATCH = os.path.join(run.BUILD, "selftest")

HEADER = "version,fault,tn,detected,healed"
ROWS = ["0,0,4921.45,0,1", "0,6,4921.45,1,1", "1,0,4800.1,1,0"]


def write_db(name, rows, fingerprint="# fingerprint: test"):
    path = os.path.join(SCRATCH, name)
    with open(path, "w") as f:
        f.write("\n".join([fingerprint, HEADER] + rows) + "\n")
    return path


def report(kind, version, fault=None, wall_s=1.0, ok=True):
    r = {"kind": kind, "version": version, "ok": ok, "wall_s": wall_s,
         "error": ""}
    if fault is not None:
        r["fault"] = fault
    return r


class OutputCheck(unittest.TestCase):
    def setUp(self):
        os.makedirs(SCRATCH, exist_ok=True)

    def test_identical_rows_pass(self):
        db = write_db("db.csv", ROWS)
        ref = run.read_rows(write_db("ref.csv", ROWS))
        grid = [(0, 0), (0, 6), (1, 0)]
        self.assertEqual(run.check_rows(grid, db, ref), {})

    def test_altered_reference_row_is_a_failed_point(self):
        db = write_db("db.csv", ROWS)
        altered = list(ROWS)
        altered[1] = "0,6,4921.46,1,1"
        ref = run.read_rows(write_db("ref.csv", altered))
        problems = run.check_rows([(0, 0), (0, 6), (1, 0)], db, ref)
        self.assertEqual(problems, {(0, 6): "row differs"})

    def test_missing_row_and_missing_db(self):
        db = write_db("db.csv", ROWS[:1])
        ref = run.read_rows(write_db("ref.csv", ROWS))
        self.assertEqual(run.check_rows([(0, 0), (0, 6)], db, ref),
                         {(0, 6): "missing"})
        gone = os.path.join(SCRATCH, "absent.csv")
        self.assertEqual(run.check_rows([(0, 0)], gone, ref),
                         {(0, 0): "missing"})

    def test_other_fingerprint_fails_every_point(self):
        db = write_db("db.csv", ROWS, "# fingerprint: other")
        ref = run.read_rows(write_db("ref.csv", ROWS))
        self.assertEqual(len(run.check_rows([(0, 0), (0, 6)], db, ref)), 2)


class Rollup(unittest.TestCase):
    GRID = [(0, 0), (0, 6), (1, 0), (1, 6)]

    def reports(self):
        return [report("warmup", 0, wall_s=2.0),
                report("point", 0, 0, 5.0), report("point", 0, 6, 4.0),
                report("warmup", 1, wall_s=3.0),
                report("point", 1, 0, 6.0), report("point", 1, 6, 5.0)]

    def test_complete_reports(self):
        r = run.rollup(self.GRID, self.reports(), 4, 14.0)
        self.assertEqual(r["problems"], {})
        self.assertEqual(r["setup_s"], 5.0)
        self.assertEqual(r["critical_strand_s"], 14.0)
        self.assertAlmostEqual(r["idle_frac"], 1 - 25.0 / 56.0)

    def test_dropped_point_report_is_missing(self):
        reps = [r for r in self.reports() if r.get("fault") != 6 or
                r["version"] != 1]
        r = run.rollup(self.GRID, reps, 4, 14.0)
        self.assertEqual(r["problems"], {(1, 6): "job report missing"})

    def test_dropped_warmup_report_is_missing_not_zero(self):
        reps = [r for r in self.reports()
                if not (r["kind"] == "warmup" and r["version"] == 1)]
        r = run.rollup(self.GRID, reps, 4, 14.0)
        self.assertIsNone(r["setup_s"])
        self.assertIsNone(r["idle_frac"])
        self.assertEqual(set(r["problems"]), {(1, 0), (1, 6)})

    def test_failed_job_is_a_failed_point(self):
        reps = self.reports()
        reps[2]["ok"] = False
        reps[2]["error"] = "boom"
        r = run.rollup(self.GRID, reps, 4, 14.0)
        self.assertEqual(r["problems"], {(0, 6): "job failed: boom"})


class SelfTimes(unittest.TestCase):
    def test_overlapping_children_are_covered_once(self):
        spans = [
            {"id": 0, "parent": -1, "t0": 0.0, "t1": 10.0},
            {"id": 1, "parent": 0, "t0": 1.0, "t1": 6.0},
            {"id": 2, "parent": 0, "t0": 2.0, "t1": 8.0},
            {"id": 3, "parent": 1, "t0": 1.0, "t1": 2.0},
        ]
        self_s = [s["self_s"] for s in run.self_times(spans)]
        self.assertEqual(self_s, [3.0, 4.0, 6.0, 1.0])


class EndToEnd(unittest.TestCase):
    """The `quick` grid through the real binary."""

    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(SCRATCH, exist_ok=True)

    def test_quick_grid_matches_the_fixture(self):
        result, problems = run.measure("quick", run.REFERENCE_SEED, 0, 0)
        self.assertEqual(problems, [])
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (1, 0))
        for name, unit in run.END_TO_END:
            self.assertGreater(result["metrics"][name]["value"], 0)
            self.assertEqual(result["metrics"][name]["unit"], unit)

    def test_corrupted_reference_and_dropped_report(self):
        fixture = os.path.join(SCRATCH, "fixture.csv")
        shutil.copy(run.REFERENCES["quick"], fixture)
        with open(fixture) as f:
            lines = f.read().splitlines()
        lines = [l + "1" if l.startswith("0,6,") else l for l in lines]
        with open(fixture, "w") as f:
            f.write("\n".join(lines) + "\n")
        saved = run.REFERENCES["quick"]
        run.REFERENCES["quick"] = fixture
        try:
            result, problems = run.measure("quick", run.REFERENCE_SEED,
                                           0, 0)
        finally:
            run.REFERENCES["quick"] = saved
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("(0, 6): row differs", problems)

        db = os.path.join(SCRATCH, "quick.csv")
        rep = run.run_binary("campaign", "quick", run.REFERENCE_SEED, db, 1)
        grid = [tuple(p) for p in rep["grid"]]
        points = [r for r in rep["reports"] if r["kind"] == "point"]
        roll = run.rollup(grid, [r for r in rep["reports"]
                                 if r["kind"] != "point"], 1, rep["wall_s"])
        self.assertEqual(len(points), 1)
        self.assertEqual(roll["problems"], {(0, 6): "job report missing"})

    def test_traced_run_reports_every_per_layer_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            declared = {m["name"]: m["unit"]
                        for m in json.load(f)["per_layer"]}
        result, problems = run.measure("quick", run.REFERENCE_SEED, 0, 1)
        self.assertEqual(problems, [])
        self.assertEqual({k: m["unit"]
                          for k, m in result["metrics"].items()}, declared)
        self.assertGreater(result["metrics"]["alloc.build"]["value"], 0)

    def test_other_seed_falls_back_to_determinism(self):
        result, problems = run.measure("quick", 7, 0, 0)
        self.assertEqual(problems, [])
        self.assertEqual((result["attempted"], result["failed"]), (1, 0))


if __name__ == "__main__":
    unittest.main()
