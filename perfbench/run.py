#!/usr/bin/env python3
"""Campaign benchmark: what a phase-1 fault-injection campaign costs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady-grid --seed 1 \
        --seconds 30 --trace 0

Builds the libraries from ../src plus perfbench_campaign into
.bench_build/ (a no-op once built), runs the workload's campaign,
checks every behaviour row against its reference, prints each metric
as "name value unit" and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced campaigns;
--trace 1 adds one traced run and reports the per-layer metrics (see
README.md). Exit status is 0 when every row matched, 1 when a point
failed, is missing or differs, and 2 when the benchmark could not run
at all (nothing is printed on stdout then).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_campaign")
FIXTURE = os.path.join(ROOT, "results", "phase1_behaviors.csv")

# The campaign seed every reference row was measured at (the committed
# fixtures' seed). Any other campaign seed has no reference.
REFERENCE_SEED = 42
REFERENCES = {
    "steady-grid": FIXTURE,
    "fork-fanout": FIXTURE,
    "sessions-slo": os.path.join(HERE, "ref", "sessions-slo.csv"),
    "quick": FIXTURE,
}
WORKERS = min(4, os.cpu_count() or 1)

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build perfbench_campaign."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        if r.returncode != 0:
            raise BenchError("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "-j", str(WORKERS),
                        "--target", "perfbench_campaign"], **quiet)
    if r.returncode != 0:
        raise BenchError("build failed")


def run_binary(mode, workload, seed, db, jobs, full_grid=None):
    """Run one campaign or traced run; return its JSON report."""
    report = db + ".json"
    for path in (db, report):
        if os.path.exists(path):
            os.remove(path)
    cmd = [BINARY, mode, "--workload", workload, "--seed", str(seed),
           "--jobs", str(jobs), "--db", db, "--report", report]
    if full_grid:
        cmd += ["--full-grid", full_grid]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(report):
        raise BenchError(f"{mode} run exited with {r.returncode}")
    with open(report) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Output check.

def read_rows(path):
    """A behaviour DB as (fingerprint, header, {(version, fault): row})."""
    if not os.path.exists(path):
        return None, None, {}
    with open(path) as f:
        lines = f.read().splitlines()
    fingerprint = lines[0] if lines and lines[0].startswith("#") else ""
    body = lines[1:] if fingerprint else lines
    header = body[0] if body else ""
    rows = {}
    for line in body[1:]:
        v, k = line.split(",", 2)[:2]
        rows[(int(v), int(k))] = line
    return fingerprint, header, rows


def check_rows(grid, produced, reference):
    """Byte-compare every grid point's row with its reference row.

    Returns {(version, fault): problem} for each point that is missing
    from the produced DB, has no reference, or differs from it.
    """
    fp, header, rows = read_rows(produced)
    ref_fp, ref_header, ref_rows = reference
    problems = {}
    for v, k in grid:
        key = (v, k)
        if key not in rows:
            problems[key] = "missing"
        elif key not in ref_rows:
            problems[key] = "no reference row"
        elif (fp, header) != (ref_fp, ref_header):
            problems[key] = "header differs"
        elif rows[key] != ref_rows[key]:
            problems[key] = "row differs"
    return problems


def rollup(grid, reports, jobs, wall_s):
    """Roll the runner's JobReports up into campaign-level numbers.

    A job whose report is absent is reported as missing, never as zero
    time: its grid point (or, for a warm-up, every point of its strand)
    counts as failed, and setup_s is None when any warm-up is missing.
    """
    versions = sorted({v for v, _ in grid})
    warm = {r["version"]: r for r in reports if r["kind"] == "warmup"}
    point = {(r["version"], r["fault"]): r
             for r in reports if r["kind"] == "point"}
    problems = {}
    for v, k in grid:
        r = point.get((v, k))
        if v not in warm:
            problems[(v, k)] = "warm-up report missing"
        elif not warm[v]["ok"]:
            problems[(v, k)] = "warm-up failed: " + warm[v]["error"]
        elif r is None:
            problems[(v, k)] = "job report missing"
        elif not r["ok"]:
            problems[(v, k)] = "job failed: " + r["error"]
    complete = all(v in warm for v in versions)
    strand = {v: sum(r["wall_s"] for r in reports if r["version"] == v)
              for v in versions}
    busy = sum(r["wall_s"] for r in reports)
    return {
        "problems": problems,
        "setup_s": (sum(warm[v]["wall_s"] for v in versions)
                    if complete else None),
        "critical_strand_s": max(strand.values()) if complete else None,
        "idle_frac": 1.0 - busy / (jobs * wall_s) if complete else None,
    }


def campaign_run(workload, seed, reference, jobs):
    """One untraced campaign: its metrics and the points that failed."""
    db = os.path.join(BUILD, "runs", f"{workload}-{seed}.csv")
    rep = run_binary("campaign", workload, seed, db, jobs)
    grid = [tuple(p) for p in rep["grid"]]
    roll = rollup(grid, rep["reports"], jobs, rep["wall_s"])
    problems = dict(roll["problems"])
    for key, why in check_rows(grid, db, reference).items():
        problems.setdefault(key, why)
    metrics = {"wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"],
               "setup_s": roll["setup_s"],
               "peak_rss_mb": rep["peak_rss_mb"]}
    return grid, db, metrics, roll, problems


# ----------------------------------------------------------------------
# Traced run: per-layer metrics.

def self_times(spans):
    """Each span's duration minus the part its children cover.

    Children of runCampaign run concurrently on the workers, so the
    covered part is the union of the child intervals, not their sum.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for s in spans:
        covered, end = 0.0, s["t0"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        s["self_s"] = (s["t1"] - s["t0"]) - covered
    return spans


def layer_metrics(trace, roll, campaign_cpu_s):
    spans = trace["spans"]

    def total(name, field=None):
        return sum((s[field] if field else s["t1"] - s["t0"])
                   for s in spans if s["name"] == name)

    def median(name, field=None):
        vals = [(s[field] if field else s["t1"] - s["t0"])
                for s in spans if s["name"] == name]
        return statistics.median(vals) if vals else 0.0

    warm = [j["counters"] for j in trace["jobs"]
            if j["counters"] and j["counters"]["kind"] == "warmup"]
    pts = [j["counters"] for j in trace["jobs"]
           if j["counters"] and j["counters"]["kind"] == "point"]

    def delta(field):
        return sum(p["end"][field] - p["start"][field] for p in pts)

    def warm_delta(field):
        return sum(w["warmed"][field] - w["built"][field] for w in warm)

    measure_s = total("injectAndMeasure")
    served = sum(p["served"] for p in pts)
    offered = sum(p["offered"] for p in pts)
    attempts = delta("local_hits") + delta("forwarded") + \
        delta("local_misses")
    busy = [(p["end"]["cpu_busy_s"] - p["start"]["cpu_busy_s"]) /
            (p["end"]["nodes"] * (p["end"]["sim_s"] - p["start"]["sim_s"]))
            for p in pts]
    return {
        "campaign.idle_frac": (roll["idle_frac"], "ratio"),
        "campaign.critical_strand_s": (roll["critical_strand_s"], "s"),
        "exp.build_s": (total("Experiment"), "s"),
        "exp.warm_s": (total("warmUp"), "s"),
        "exp.snapshot_s": (total("snapshot"), "s"),
        "exp.fork_s": (median("forkFrom"), "s"),
        "exp.measure_s": (measure_s, "s"),
        "exp.extract_s": (total("extractBehavior"), "s"),
        "exp.db_save_s": (total("BehaviorDb::save"), "s"),
        "alloc.build": (total("Experiment", "allocs"), "count"),
        "alloc.warm": (total("warmUp", "allocs"), "count"),
        "alloc.fork": (median("forkFrom", "allocs"), "count"),
        "alloc.per_served.measure":
            (total("injectAndMeasure", "allocs") / served, "count"),
        "sim.events.warm": (warm_delta("events"), "count"),
        "sim.events.measure": (delta("events"), "count"),
        "sim.events_per_s": (delta("events") / measure_s, "1/s"),
        "sim.heap.entries_at_inject":
            (max(p["start"]["heap_entries"] for p in pts), "count"),
        "sim.heap.entries_at_end":
            (max(p["end"]["heap_entries"] for p in pts), "count"),
        "sim.heap.live_at_end":
            (max(p["end"]["live_events"] for p in pts), "count"),
        "sim.pool.fresh_allocs":
            (warm_delta("pool_fresh") + delta("pool_fresh"), "count"),
        "sim.pool.hits":
            (warm_delta("pool_hits") + delta("pool_hits"), "count"),
        "press.local_hit_ratio": (delta("local_hits") / attempts, "ratio"),
        "press.forwarded": (delta("forwarded"), "count"),
        "press.cache_evictions": (delta("cache_evictions"), "count"),
        "press.broadcasts": (delta("broadcasts"), "count"),
        "press.stall_s": (delta("stall_s"), "s"),
        "net.intra.frames": (delta("intra_frames"), "count"),
        "net.intra.bytes": (delta("intra_bytes"), "B"),
        "net.intra.drops": (delta("intra_drops"), "count"),
        "net.client.frames": (delta("client_frames"), "count"),
        "os.cpu.busy_frac": (statistics.mean(busy), "ratio"),
        "loadgen.offered": (offered, "count"),
        "loadgen.served": (served, "count"),
        "loadgen.failed_frac":
            (sum(p["failed"] for p in pts) / offered, "ratio"),
        "loadgen.p50_ms": (trace["latency"]["p50_ms"], "ms"),
        "loadgen.p99_ms": (trace["latency"]["p99_ms"], "ms"),
        "core.evaluate_s": (trace["core_evaluate_s"], "s"),
        "trace.wall_s": (trace["total_s"], "s"),
        "trace.overhead": (trace["cpu_s"] / campaign_cpu_s, "ratio"),
    }


def write_trace(trace, metrics, name):
    path = os.path.join(BUILD, "traces", name + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"spans": self_times(trace["spans"]),
                   "jobs": trace["jobs"],
                   "metrics": {k: v for k, (v, _) in metrics.items()}},
                  f, indent=1)
    log(f"trace written to {os.path.relpath(path, ROOT)}")


# ----------------------------------------------------------------------

def measure(workload, campaign_seed, seconds, trace):
    """Run the benchmark; return (result dict, list of problems)."""
    if campaign_seed == REFERENCE_SEED:
        reference = read_rows(REFERENCES[workload])
    else:
        reference = None  # filled from the single-worker traced run
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)

    det = None
    if reference is None:
        # Determinism fallback: the single-worker traced run's rows are
        # the reference for the timed multi-worker campaigns.
        det = run_binary("trace", workload, campaign_seed,
                         os.path.join(BUILD, "runs", "det.csv"), 1)
        reference = read_rows(os.path.join(BUILD, "runs", "det.csv"))

    runs = []
    problems = []
    failed = 0
    start = time.monotonic()
    while True:
        grid, db, metrics, roll, bad = campaign_run(
            workload, campaign_seed, reference, WORKERS)
        runs.append(metrics)
        problems += [f"{k}: {why}" for k, why in sorted(bad.items())]
        failed += len(bad)
        elapsed = time.monotonic() - start
        if trace or elapsed + metrics["wall_s"] > seconds:
            break
    attempted = len(grid) * len(runs)

    out = {}
    if trace:
        traced_db = os.path.join(BUILD, "runs", "traced.csv")
        tr = run_binary("trace", workload, campaign_seed, traced_db,
                        WORKERS, FIXTURE)
        tbad = check_rows(grid, traced_db, read_rows(db))
        problems += [f"{k}: traced {why}" for k, why in sorted(tbad.items())]
        failed += len(set(tbad) - set(bad))
        bad_jobs = [j for j in tr["jobs"] if not j["ok"]]
        problems += ["traced job failed: " + j["error"] for j in bad_jobs]
        if roll["setup_s"] is None or bad_jobs:
            problems.append("traced run incomplete")
        else:
            metrics_l = layer_metrics(tr, roll, runs[-1]["cpu_s"])
            write_trace(tr, metrics_l, f"{workload}-{campaign_seed}")
            out = {k: {"value": v, "unit": u}
                   for k, (v, u) in metrics_l.items()}
    else:
        for name, unit in END_TO_END:
            vals = [r[name] for r in runs]
            if None in vals:
                problems.append(f"{name}: a job report is missing")
                continue
            out[name] = {"value": statistics.median(vals), "unit": unit}
    if det is not None and any(not j["ok"] for j in det["jobs"]):
        problems.append("single-worker reference run failed")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": out}
    return result, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(REFERENCES))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed (accepted and echoed; the "
                    "campaign's inputs are fixed, see README.md)")
    ap.add_argument("--campaign-seed", type=int, default=REFERENCE_SEED,
                    help="campaign seed (default 42, the fixtures' "
                    "seed); any other seed is checked for determinism "
                    "against a single-worker run instead of a reference")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        build()
        result, problems = measure(args.workload, args.campaign_seed,
                                   args.seconds, args.trace)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    for p in problems:
        log(f"FAILED {p}")
    print(f"workload {args.workload} campaign-seed {args.campaign_seed} "
          f"jobs {WORKERS}: {result['attempted']} points, "
          f"{result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
