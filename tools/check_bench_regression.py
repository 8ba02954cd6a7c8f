#!/usr/bin/env python3
"""Bench regression gate: microbench trajectory plus one table of ratio gates.

Microbench trajectory (--current): compares a quick-mode Google Benchmark
JSON artifact (the bench-smoke CI job) against the committed BENCH_*.json
trajectory at the repo root and fails when any case runs more than
THRESHOLD times slower.  Every BENCH_<pr>.json is scanned, in ascending PR
order, for (a) arrays of objects carrying "case" + "after_ns" (the
before/after rows the PR logs record) and (b) a "new_cases_after_only"
{name: ns} object.  The latest PR that mentions a case wins, so the
committed files form a trajectory, not a single frozen baseline.  Quick
mode keeps the full-run benchmark names and per-case problem sizes (only
the measurement window shrinks), but registers a *subset* of the cases, so
baselines without a matching current case are not gated.  CI machines are
noisy, hence the generous threshold.

Ratio gates (--gates FILE..., repeatable): each FILE is the --json artifact of
one gated bench.  Its single prN_*_cases key selects the rows of GATES that
apply; every row is a check within that one run, so no committed baseline
is needed.  docs/BENCHMARKS.md lists the rows and the bench behind each key.

Usage:
  tools/check_bench_regression.py [--current bench-results] [--baseline-dir .]
                                  [--gates FILE [FILE ...]]
Exit status: 0 ok, 1 gate or regression failure, 2 usage/IO error.
"""

import argparse
import glob
import json
import operator
import os
import re
import statistics
import sys
from collections import namedtuple

THRESHOLD = 3.0  # microbench: fail when current/baseline exceeds this ratio

# A row of the gate table.  `cases` is the bench's prN_*_cases key; `scope`
# is EACH (every case), one case name (the row is skipped when that case is
# absent) or a tuple of case names (the whole cases object, skipped unless
# all are present).  `value` reads the checked value from the case, or from
# the cases object for a tuple scope.  `check` is IDENTITY (every value in
# the returned list equal), STRUCTURE (every case of the tuple scope
# present) or a bound (op, constant); a bound whose value is NA does not
# apply to that case, and a value that cannot be computed (a null or
# non-numeric field) fails the row.  `hw` > 0 skips the row when the
# recording machine reported fewer than `hw` hardware threads
# (params.hw_threads).  FAILS maps each bound to the comparison that fails
# it, so the rows keep the old functions' verdicts even on NaN.
Gate = namedtuple("Gate", "cases scope label value check hw", defaults=(0,))
EACH, IDENTITY, STRUCTURE, NA = None, "identity", "structure", object()
FAILS = {">=": operator.lt, "<=": operator.gt, "<": operator.ge, "==": operator.ne}
INF = float("inf")


def ratio(num, den, default):
    return num / den if den > 0 else default


def get(*keys):
    return lambda c: [c.get(k) for k in keys]


def present(*keys):
    # A missing (or null) key yields a fresh object equal to nothing, so the
    # identity row fails rather than matching two absent values.
    return lambda c: [c[k] if c.get(k) is not None else object() for k in keys]


def across_threads(key):
    return lambda c: [s.get(key) for s in c.get("threads") or []]


def vol(cs, name):
    return cs[name]["volume_bytes"]


PLAN = "pr4_plan_cases"
PLAN3 = ("identity_closure", "projected_closure", "fused3")
SINGLES = ("single_count", "single_closure", "single_hot_filter")
PLAN_ALL = PLAN3 + SINGLES
PAR, IO, SVC, STREAM = ("pr6_parallel_cases", "pr8_io_cases",
                        "pr9_service_cases", "pr10_streaming_cases")

GATES = [
    # bench_fig9_metadata_impact: sender-side projection and plan fusion.
    Gate(PLAN, PLAN_ALL, "plan cases present", None, STRUCTURE),
    Gate(PLAN, PLAN_ALL, "triangles across identity/projected/fused3",
         lambda cs: [cs[n]["triangles"] for n in PLAN3], IDENTITY),
    Gate(PLAN, PLAN_ALL, "closure digest across identity/projected/fused3",
         lambda cs: [cs[n].get("checksum", 0) for n in PLAN3], IDENTITY),
    Gate(PLAN, PLAN_ALL, "projection volume reduction (identity/projected)",
         lambda cs: (vol(cs, "identity_closure") / vol(cs, "projected_closure")
                     if vol(cs, "projected_closure") else INF), (">=", 2.0)),
    Gate(PLAN, PLAN_ALL, "fused3 traffic over the worst single run",
         lambda cs: (vol(cs, "fused3") / max(vol(cs, n) for n in SINGLES)
                     if max(vol(cs, n) for n in SINGLES) else INF), ("<=", 1.1)),
    # bench_parallel_traversal: bit-identity across thread counts.
    Gate(PAR, EACH, "thread samples", lambda c: len(c.get("threads") or []), (">=", 1)),
    *[Gate(PAR, EACH, f"{k} across thread counts", across_threads(k), IDENTITY)
      for k in ("triangles", "volume_bytes", "messages", "list_batches")],
    Gate(PAR, "rmat", "speedup at 4 threads",
         lambda c: c.get("speedup_4t", 0.0), (">=", 1.6), hw=4),
    # bench_snapshot_io: raw vs compressed snapshots, threaded ingest+freeze.
    Gate(IO, EACH, "triangles across snapshot codecs",
         get("triangles_raw", "triangles_compressed"), IDENTITY),
    Gate(IO, EACH, "snapshot compression (raw/compressed bytes)",
         lambda c: ratio(c.get("snapshot_bytes_raw", 0),
                         c.get("snapshot_bytes_compressed", 0), 0.0), (">=", 1.7)),
    Gate(IO, EACH, "compressed load over raw load",
         lambda c: ratio(c.get("load_seconds_compressed", 0.0),
                         c.get("load_seconds_raw", 0.0), INF), ("<=", 1.15)),
    Gate(IO, "rmat", "ingest+freeze speedup at 4 threads",
         lambda c: ratio(c.get("ingest_seconds_1t", 0.0) + c.get("freeze_seconds_1t", 0.0),
                         c.get("ingest_seconds_4t", 0.0) + c.get("freeze_seconds_4t", 0.0),
                         0.0), (">=", 1.6), hw=4),
    # bench_service_throughput: daemon replies, admission fusion, LRU cache.
    Gate(SVC, EACH, "replies mismatching the standalone traversal",
         lambda c: c.get("mismatches", 1), ("==", 0)),
    Gate(SVC, EACH, "fusion (fused/unfused plans per second)",
         lambda c: ratio(c.get("fused_plans_per_sec", 0.0),
                         c.get("unfused_plans_per_sec", 0.0), 0.0), (">=", 1.5)),
    Gate(SVC, EACH, "fused traversals minus plans",
         lambda c: (c.get("fused_traversals", c["plans"]) - c["plans"]
                    if c.get("plans", 0) > 0 else NA), ("<", 0)),
    Gate(SVC, EACH, "unfused traversals minus plans",
         lambda c: (c.get("unfused_traversals", 0) - c["plans"]
                    if c.get("plans", 0) > 0 else NA), ("==", 0)),
    Gate(SVC, EACH, "cache hit speedup (cold/hit latency)",
         lambda c: ratio(c.get("cold_seconds", 0.0), c.get("hit_seconds", 0.0), 0.0),
         (">=", 10.0)),
    # bench_streaming_ingest: overlay vs rebuild, windowed surveys.
    Gate(STREAM, ("delta_1pct",), "delta_1pct case present", None, STRUCTURE),
    Gate(STREAM, EACH, "triangles across rebuild/overlay/compacted",
         present("triangles_rebuild", "triangles_overlay", "triangles_compacted"),
         IDENTITY),
    Gate(STREAM, EACH, "unwindowed volume rebuild/overlay",
         get("volume_rebuild", "volume_overlay"), IDENTITY),
    Gate(STREAM, EACH, "unwindowed messages rebuild/overlay",
         get("messages_rebuild", "messages_overlay"), IDENTITY),
    Gate(STREAM, EACH, "windowed fires rebuild/overlay",
         get("window_fires_rebuild", "window_fires"), IDENTITY),
    Gate(STREAM, "delta_1pct", "ingest+survey speedup over rebuild+survey",
         lambda c: ratio(c.get("rebuild_seconds", 0.0),
                         c.get("incremental_seconds", 0.0), 0.0), (">=", 10.0)),
    Gate(STREAM, EACH, "window volume minus full volume",
         lambda c: c.get("window_volume", 0) - c.get("full_volume", 0), ("<", 0)),
]
GATED_KEYS = {g.cases for g in GATES}


def fmt(v):
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v) if isinstance(v, int) else "-"


def evaluate(path):
    """Run every GATES row of the artifact's bench.  Returns (cases key,
    [(gate or None, failure text)]); raises OSError/ValueError on bad input."""
    with open(path) as f:
        doc = json.load(f)
    keys = [k for k in doc if k.endswith("_cases")] if isinstance(doc, dict) else []
    if len(keys) != 1 or keys[0] not in GATED_KEYS:
        return None, [(None, f"{path}: needs exactly one gated *_cases object "
                             f"(found {keys or 'none'})")]
    key = keys[0]
    cases = doc[key]
    if not isinstance(cases, dict) or not cases:
        return key, [(None, f"{path}: {key} is empty or not an object")]
    failures = []

    def report(gate, text, failed):
        print(f"{key} {text}{'  FAIL' if failed else ''}")
        if failed:
            failures.append((gate, text))

    for g in (g for g in GATES if g.cases == key):
        if isinstance(g.scope, tuple):
            missing = [n for n in g.scope if n not in cases]
            if g.check == STRUCTURE:
                report(g, f"*: {g.label}" + (f", missing {', '.join(missing)}"
                                             if missing else ""), bool(missing))
                continue
            targets = [] if missing else [("*", cases)]
        elif g.scope is EACH:
            targets = sorted(cases.items())
        else:
            targets = [(g.scope, cases[g.scope])] if g.scope in cases else []
        hw = doc.get("params", {}).get("hw_threads", 0) if g.hw else 0
        if hw < g.hw:
            print(f"{key} {g.label}: skipped (hw_threads={hw} < {g.hw})")
            continue
        for name, obj in targets:
            try:
                value = g.value(obj)
            except TypeError as e:
                report(g, f"{name}: {g.label} unreadable ({e})", True)
                continue
            if value is NA:
                continue
            if g.check == IDENTITY:
                failed = any(v != value[0] for v in value)
                shown, need = "[" + ", ".join(map(fmt, value)) + "]", "all equal"
            else:
                op, bound = g.check
                failed, shown, need = FAILS[op](value, bound), fmt(value), f"{op} {fmt(bound)}"
            report(g, f"{name}: {g.label} {shown} (needs {need})", failed)
    return key, failures


def load_baselines(baseline_dir):
    """Return {case_name: (ns, source_file)} from the BENCH_*.json trajectory."""
    files = glob.glob(os.path.join(baseline_dir, "BENCH_*.json"))

    def pr_number(path):
        m = re.search(r"BENCH_\D*(\d+)", os.path.basename(path))
        return int(m.group(1)) if m else -1

    baselines = {}
    for path in sorted(files, key=pr_number):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: skipping unreadable baseline {path}: {e}")
            continue
        for value in doc.values():
            if isinstance(value, list):
                for row in value:
                    if isinstance(row, dict) and "case" in row and "after_ns" in row:
                        # "A -> B" rows rename a case; the new name is the target.
                        name = row["case"].split("->")[-1].strip()
                        baselines[name] = (float(row["after_ns"]), path)
        extra = doc.get("new_cases_after_only")
        if isinstance(extra, dict):
            for name, ns in extra.items():
                baselines[name] = (float(ns), path)
    return baselines


def normalize_name(name):
    """Drop Google Benchmark option suffixes (quick mode appends
    /min_time:..., repetitions append /repeats:...) so quick-mode cases match
    the full-run names the BENCH_*.json files record."""
    return re.sub(r"/(min_time|min_warmup_time|repeats|iterations|threads"
                  r"|real_time|process_time|manual_time):?[^/]*", "", name)


def load_current(current_dir):
    """Return {case_name: ns} from Google Benchmark JSON files in a directory.
    A case run with --benchmark_repetitions has one row per repetition under
    one normalized name; its value is the median of those rows, so a single
    slow repetition cannot fail the gate."""
    samples = {}
    paths = glob.glob(os.path.join(current_dir, "*.json"))
    if not paths:
        raise FileNotFoundError(f"no *.json bench results under {current_dir}")
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for bench in doc.get("benchmarks", []):
            if bench.get("aggregate_name"):  # skip mean/median/stddev rows
                continue
            unit = bench.get("time_unit", "ns")
            scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
            if scale is None:
                print(f"warning: unknown time unit '{unit}' for {bench.get('name')}")
                continue
            samples.setdefault(normalize_name(bench["name"]), []).append(
                float(bench["cpu_time"]) * scale)
    return {name: statistics.median(ns) for name, ns in samples.items()}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--current",
                        help="directory of Google Benchmark JSON files from this run")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding the committed BENCH_*.json files")
    parser.add_argument("--gates", action="extend", nargs="+", default=[], metavar="FILE",
                        help="--json artifacts of gated benches (repeatable)")
    args = parser.parse_args()
    if not args.current and not args.gates:
        parser.error("need --current and/or --gates")

    # Every requested check runs so one CI pass reports every failure; the
    # combined exit status is the worst of them.
    gate_failures = []
    for path in args.gates:
        try:
            key, failures = evaluate(path)
        except (OSError, ValueError) as e:
            print(f"error: {e}")
            return 2
        if failures:
            print(f"\nFAIL: {key or path} gate(s) violated:")
            for _, text in failures:
                print(f"  {text}")
        else:
            print(f"OK: {key} gates pass")
        gate_failures += failures
    if not args.current:
        return 1 if gate_failures else 0

    try:
        baselines = load_baselines(args.baseline_dir)
        current = load_current(args.current)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}")
        return 2
    if not baselines:
        print(f"error: no baseline cases found in {args.baseline_dir}/BENCH_*.json")
        return 2

    regressions = []
    compared = 0
    print(f"{'case':40s} {'baseline':>12s} {'current':>12s} {'ratio':>7s}")
    for name in sorted(current):
        if name not in baselines:
            print(f"{name:40s} {'(new)':>12s} {current[name]:>10.1f}ns       -")
            continue
        base_ns, source = baselines[name]
        r = current[name] / base_ns if base_ns > 0 else float("inf")
        flag = "  REGRESSION" if r > THRESHOLD else ""
        print(f"{name:40s} {base_ns:>10.1f}ns {current[name]:>10.1f}ns {r:>6.2f}x{flag}")
        compared += 1
        if r > THRESHOLD:
            regressions.append((name, r, source))

    if compared == 0:
        print("error: no current case matched any committed baseline")
        return 2
    if regressions:
        print(f"\nFAIL: {len(regressions)} case(s) regressed beyond {THRESHOLD:.2f}x:")
        for name, r, source in regressions:
            print(f"  {name}: {r:.2f}x vs {source}")
        return 1
    print(f"\nOK: {compared} case(s) within {THRESHOLD:.2f}x of the committed trajectory")
    return 1 if gate_failures else 0


if __name__ == "__main__":
    sys.exit(main())
