#!/usr/bin/env python3
"""Per-phase bench regression gate.

Compares a quick-mode Google Benchmark JSON artifact (the bench-smoke CI job)
against the committed BENCH_*.json trajectory at the repo root and fails when
any case regresses by more than the threshold.

Baseline extraction: every BENCH_<pr>.json is scanned, in ascending PR order,
for (a) arrays of objects carrying "case" + "after_ns" (the before/after rows
the PR logs record) and (b) a "new_cases_after_only" {name: ns} object.  The
latest PR that mentions a case wins, so the committed files form a
trajectory, not a single frozen baseline.

Quick mode keeps the full-run benchmark names and per-case problem sizes
(only the measurement window shrinks), so per-case nanoseconds are directly
comparable -- but quick mode registers a *subset* of the cases (the largest
shapes are dropped), so baselines without a matching current case are simply
not gated; the gate prints only what it compared.  CI machines are noisy,
hence the generous default threshold.

Survey-plan gates (PR 4): --plan-gates points at the JSON emitted by
`bench_fig9_metadata_impact --json` and asserts the plan-API acceptance
ratios from that run's `pr4_plan_cases`:
  * identical triangle counts (and closure digests) across the identity,
    projected and fused cases,
  * projected-plan survey volume at least --plan-reduction-min (2.0) times
    smaller than the identity plan,
  * fused 3-callback traffic within --plan-fusion-max (1.1) of the worst
    single-callback run.
These are ratio gates against the same run, so they need no committed
baseline; BENCH_pr4.json records the trajectory for humans.

Parallel gates (PR 6): --parallel-gates points at the JSON emitted by
`bench_parallel_traversal --json` and asserts, from that run's
`pr6_parallel_cases`:
  * identical triangles / volume_bytes / messages / closed batches across
    every thread count of every case (bit-identity is unconditional),
  * rmat speedup at 4 threads >= --parallel-speedup-min (1.6), skipped when
    the recording machine had fewer than 4 hardware threads.
Like the other gates these are checks within one run, needing no committed
baseline; BENCH_pr6.json records the trajectory for humans.

IO gates (PR 8): --io-gates points at the JSON emitted by
`bench_snapshot_io --json` and asserts, from that run's `pr8_io_cases`:
  * identical triangle counts between the raw and compressed snapshot
    loads of every case (bit-identity is unconditional),
  * raw/compressed snapshot byte ratio >= --io-compression-min (1.7) per
    case (the delta/varint codecs must actually shrink the file),
  * compressed/raw load wall ratio <= --io-load-max (1.15) per case (the
    parallel per-section decode must stay near the mmap hot-cache path),
  * combined (ingest+freeze) 1-thread/4-thread speedup >=
    --io-speedup-min (1.6) on rmat, skipped when the recording machine
    had fewer than 4 hardware threads.
Like the other gates these are checks within one run, needing no committed
baseline; BENCH_pr8.json records the trajectory for humans.

Service gates (PR 9): --service-gates points at the JSON emitted by
`bench_service_throughput --json` and asserts, from that run's
`pr9_service_cases`:
  * zero mismatches between daemon replies and the standalone traversal of
    the same unit list (bit-identity is unconditional),
  * fused/unfused plans-per-second ratio >= --service-fusion-min (1.5) at
    8 concurrent clients (the admission window must actually pay off),
  * fused traversal count strictly below the plan count (plans really
    shared traversals) while the unfused run traversed once per plan,
  * cold/hit latency ratio >= --service-cache-min (10) (an LRU hit skips
    the traversal entirely and replays the cached reply bytes).
Like the other gates these are checks within one run, needing no committed
baseline; BENCH_pr9.json records the trajectory for humans.

Streaming gates (PR 10): --streaming-gates points at the JSON emitted by
`bench_streaming_ingest --json` and asserts, from that run's
`pr10_streaming_cases`:
  * bit-identity unconditionally on EVERY case: identical triangle counts
    across the full rebuild, the overlay and the compacted re-freeze;
    identical unwindowed survey volume and message counts between rebuild
    and overlay; identical windowed fire counts between rebuild and
    overlay,
  * overlay ingest + windowed survey >= --streaming-speedup-min (10.0)
    times faster end-to-end than rebuild + windowed survey on the
    `delta_1pct` case (the uniform-churn 1%-of-|E| batch; the hub-biased
    `delta_1pct_hub` case is identity-checked but not speed-gated -- its
    sum-of-endpoint-degrees cost model is documented in
    docs/STREAMING.md),
  * windowed survey volume strictly below the unwindowed volume per case
    (the window filter must prune traffic, not just results).
Like the other gates these are checks within one run, needing no committed
baseline; BENCH_pr10.json records the trajectory for humans.

Usage:
  tools/check_bench_regression.py --current bench-results [--baseline-dir .]
                                  [--threshold 3.0] [--plan-gates fig9.json]
                                  [--parallel-gates parallel.json]
                                  [--io-gates io.json]
                                  [--service-gates service.json]
                                  [--streaming-gates streaming.json]
At least one of --current / --plan-gates / --parallel-gates / --io-gates /
--service-gates / --streaming-gates is required.
Exit status: 0 ok, 1 regression found, 2 usage/IO error.
"""

import argparse
import glob
import json
import os
import re
import sys


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
    """Return {case_name: ns} from Google Benchmark JSON files in a directory."""
    results = {}
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
            results[normalize_name(bench["name"])] = float(bench["cpu_time"]) * scale
    return results


def check_plan_gates(path, reduction_min, fusion_max):
    """Verify the survey-plan acceptance ratios in a fig9 --json artifact.
    Returns a list of failure strings (empty = all gates pass)."""
    with open(path) as f:
        doc = json.load(f)
    cases = doc.get("pr4_plan_cases")
    if not isinstance(cases, dict):
        return [f"{path}: no pr4_plan_cases object"]
    needed = ["identity_closure", "projected_closure", "fused3",
              "single_count", "single_closure", "single_hot_filter"]
    missing = [n for n in needed if n not in cases]
    if missing:
        return [f"{path}: missing plan cases: {', '.join(missing)}"]

    failures = []
    ident, proj, fused = (cases[n] for n in
                          ("identity_closure", "projected_closure", "fused3"))

    tri = {n: cases[n]["triangles"] for n in
           ("identity_closure", "projected_closure", "fused3")}
    if len(set(tri.values())) != 1:
        failures.append(f"triangle counts differ across plan cases: {tri}")
    digests = {n: cases[n].get("checksum", 0) for n in
               ("identity_closure", "projected_closure", "fused3")}
    if len(set(digests.values())) != 1:
        failures.append(f"closure digests differ across plan cases: {digests}")

    reduction = (ident["volume_bytes"] / proj["volume_bytes"]
                 if proj["volume_bytes"] else float("inf"))
    print(f"plan gate: projection volume reduction {reduction:.2f}x "
          f"(needs >= {reduction_min:.2f}x)")
    if reduction < reduction_min:
        failures.append(f"projection reduced volume only {reduction:.2f}x "
                        f"(< {reduction_min:.2f}x)")

    single_max = max(cases[n]["volume_bytes"] for n in
                     ("single_count", "single_closure", "single_hot_filter"))
    fusion = (fused["volume_bytes"] / single_max if single_max else float("inf"))
    sequential = sum(cases[n]["volume_bytes"] for n in
                     ("single_count", "single_closure", "single_hot_filter"))
    seq_ratio = sequential / fused["volume_bytes"] if fused["volume_bytes"] else 0.0
    print(f"plan gate: fused 3-callback traffic {fusion:.3f}x of worst single "
          f"run (needs <= {fusion_max:.2f}x); 3 sequential runs = "
          f"{seq_ratio:.2f}x fused")
    if fusion > fusion_max:
        failures.append(f"fused traffic {fusion:.3f}x of a single run "
                        f"(> {fusion_max:.2f}x)")
    return failures


def check_parallel_gates(path, speedup_min):
    """Verify the parallel-traversal acceptance ratios in a
    bench_parallel_traversal --json artifact.  Returns a list of failure
    strings (empty = pass)."""
    with open(path) as f:
        doc = json.load(f)
    cases = doc.get("pr6_parallel_cases")
    if not isinstance(cases, dict) or not cases:
        return [f"{path}: no pr6_parallel_cases object"]
    hw_threads = doc.get("params", {}).get("hw_threads", 0)

    failures = []
    for name, case in sorted(cases.items()):
        samples = case.get("threads", [])
        if not samples:
            failures.append(f"{name}: no thread samples")
            continue
        base = samples[0]
        for s in samples[1:]:
            for key in ("triangles", "volume_bytes", "messages", "list_batches"):
                if s.get(key) != base.get(key):
                    failures.append(
                        f"{name}: {key} diverged at {s.get('threads')} threads "
                        f"({s.get(key)} vs {base.get(key)})")
        speedup = case.get("speedup_4t", 0.0)
        print(f"parallel gate: {name}: speedup at 4 threads {speedup:.2f}x "
              f"(needs >= {speedup_min:.2f}x on rmat; hw_threads={hw_threads})")
        if name == "rmat":
            if hw_threads >= 4:
                if speedup < speedup_min:
                    failures.append(f"rmat: 4-thread speedup {speedup:.2f}x "
                                    f"(< {speedup_min:.2f}x)")
            else:
                print("parallel gate: fewer than 4 hardware threads, "
                      "speedup gate skipped")
    return failures


def check_io_gates(path, compression_min, load_max, speedup_min):
    """Verify the ingest/snapshot acceptance ratios in a bench_snapshot_io
    --json artifact.  Returns a list of failure strings (empty = pass)."""
    with open(path) as f:
        doc = json.load(f)
    cases = doc.get("pr8_io_cases")
    if not isinstance(cases, dict) or not cases:
        return [f"{path}: no pr8_io_cases object"]
    hw_threads = doc.get("params", {}).get("hw_threads", 0)

    failures = []
    for name, case in sorted(cases.items()):
        if case.get("triangles_raw") != case.get("triangles_compressed"):
            failures.append(f"{name}: triangle counts diverge across snapshot "
                            f"codecs ({case.get('triangles_raw')} raw vs "
                            f"{case.get('triangles_compressed')} compressed)")
        raw_b = case.get("snapshot_bytes_raw", 0)
        cmp_b = case.get("snapshot_bytes_compressed", 0)
        compression = raw_b / cmp_b if cmp_b > 0 else 0.0
        raw_s = case.get("load_seconds_raw", 0.0)
        cmp_s = case.get("load_seconds_compressed", 0.0)
        load_ratio = cmp_s / raw_s if raw_s > 0 else float("inf")
        serial_s = (case.get("ingest_seconds_1t", 0.0)
                    + case.get("freeze_seconds_1t", 0.0))
        par_s = (case.get("ingest_seconds_4t", 0.0)
                 + case.get("freeze_seconds_4t", 0.0))
        speedup = serial_s / par_s if par_s > 0 else 0.0
        print(f"io gate: {name}: compression {compression:.2f}x "
              f"(needs >= {compression_min:.2f}x), load {load_ratio:.3f}x of "
              f"mmap (needs <= {load_max:.2f}x), pipeline speedup "
              f"{speedup:.2f}x (needs >= {speedup_min:.2f}x on rmat; "
              f"hw_threads={hw_threads})")
        if compression < compression_min:
            failures.append(f"{name}: compressed snapshot only {compression:.2f}x "
                            f"smaller than raw (< {compression_min:.2f}x)")
        if load_ratio > load_max:
            failures.append(f"{name}: compressed load {load_ratio:.3f}x of the "
                            f"mmap path (> {load_max:.2f}x)")
        if name == "rmat":
            if hw_threads >= 4:
                if speedup < speedup_min:
                    failures.append(f"rmat: ingest+freeze 4-thread speedup "
                                    f"{speedup:.2f}x (< {speedup_min:.2f}x)")
            else:
                print("io gate: fewer than 4 hardware threads, "
                      "speedup gate skipped")
    return failures


def check_service_gates(path, fusion_min, cache_min):
    """Verify the resident-service acceptance ratios in a
    bench_service_throughput --json artifact.  Returns a list of failure
    strings (empty = pass)."""
    with open(path) as f:
        doc = json.load(f)
    cases = doc.get("pr9_service_cases")
    if not isinstance(cases, dict) or not cases:
        return [f"{path}: no pr9_service_cases object"]

    failures = []
    for name, case in sorted(cases.items()):
        if case.get("mismatches", 1) != 0:
            failures.append(f"{name}: {case.get('mismatches')} daemon replies "
                            f"diverged from the standalone traversal")
        plans = case.get("plans", 0)
        fused_tps = case.get("fused_plans_per_sec", 0.0)
        unfused_tps = case.get("unfused_plans_per_sec", 0.0)
        fusion = fused_tps / unfused_tps if unfused_tps > 0 else 0.0
        fused_trav = case.get("fused_traversals", plans)
        unfused_trav = case.get("unfused_traversals", 0)
        cold_s = case.get("cold_seconds", 0.0)
        hit_s = case.get("hit_seconds", 0.0)
        cache = cold_s / hit_s if hit_s > 0 else 0.0
        print(f"service gate: {name}: fusion {fusion:.2f}x "
              f"(needs >= {fusion_min:.2f}x; {fused_trav} traversals for "
              f"{plans} plans vs {unfused_trav} unfused), cache hit "
              f"{cache:.1f}x faster than cold (needs >= {cache_min:.1f}x)")
        if fusion < fusion_min:
            failures.append(f"{name}: fused throughput only {fusion:.2f}x the "
                            f"unfused daemon (< {fusion_min:.2f}x)")
        if plans > 0 and fused_trav >= plans:
            failures.append(f"{name}: fused daemon ran {fused_trav} traversals "
                            f"for {plans} plans (no batching happened)")
        if plans > 0 and unfused_trav != plans:
            failures.append(f"{name}: unfused daemon ran {unfused_trav} "
                            f"traversals for {plans} plans (baseline is not "
                            f"one-traversal-per-plan)")
        if cache < cache_min:
            failures.append(f"{name}: cache hit only {cache:.1f}x faster than "
                            f"a cold submission (< {cache_min:.1f}x)")
    return failures


def check_streaming_gates(path, speedup_min):
    """Verify the streaming-overlay acceptance ratios in a
    bench_streaming_ingest --json artifact.  Returns a list of failure
    strings (empty = pass)."""
    with open(path) as f:
        doc = json.load(f)
    cases = doc.get("pr10_streaming_cases")
    if not isinstance(cases, dict) or not cases:
        return [f"{path}: no pr10_streaming_cases object"]

    failures = []
    for name, case in sorted(cases.items()):
        tri = {case.get("triangles_rebuild"), case.get("triangles_overlay"),
               case.get("triangles_compacted")}
        if len(tri) != 1 or None in tri:
            failures.append(f"{name}: triangle counts diverge across rebuild/"
                            f"overlay/compacted: {sorted(tri, key=str)}")
        for key in ("volume", "messages"):
            if case.get(f"{key}_rebuild") != case.get(f"{key}_overlay"):
                failures.append(
                    f"{name}: unwindowed {key} diverged "
                    f"({case.get(f'{key}_rebuild')} rebuild vs "
                    f"{case.get(f'{key}_overlay')} overlay)")
        if case.get("window_fires") != case.get("window_fires_rebuild"):
            failures.append(f"{name}: windowed fire counts diverged "
                            f"({case.get('window_fires_rebuild')} rebuild vs "
                            f"{case.get('window_fires')} overlay)")
        inc_s = case.get("incremental_seconds", 0.0)
        reb_s = case.get("rebuild_seconds", 0.0)
        speedup = reb_s / inc_s if inc_s > 0 else 0.0
        full_v = case.get("full_volume", 0)
        win_v = case.get("window_volume", 0)
        gated = " (gated)" if name == "delta_1pct" else ""
        print(f"streaming gate: {name}: ingest+survey {speedup:.2f}x faster "
              f"than rebuild+survey{gated} (delta_1pct needs >= "
              f"{speedup_min:.2f}x), window volume {win_v} B of {full_v} B")
        if name == "delta_1pct" and speedup < speedup_min:
            failures.append(f"delta_1pct: incremental path only {speedup:.2f}x "
                            f"faster than the rebuild (< {speedup_min:.2f}x)")
        if win_v >= full_v:
            failures.append(f"{name}: windowed survey volume {win_v} B did not "
                            f"drop below the unwindowed {full_v} B")
    if "delta_1pct" not in cases:
        failures.append(f"{path}: no delta_1pct case to speed-gate")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current",
                        help="directory of Google Benchmark JSON files from this run")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding the committed BENCH_*.json files")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="fail when current/baseline exceeds this ratio")
    parser.add_argument("--plan-gates",
                        help="fig9 --json artifact to check the survey-plan "
                             "acceptance ratios against")
    parser.add_argument("--plan-reduction-min", type=float, default=2.0,
                        help="minimum identity/projected volume ratio")
    parser.add_argument("--plan-fusion-max", type=float, default=1.1,
                        help="maximum fused/single volume ratio")
    parser.add_argument("--parallel-gates",
                        help="bench_parallel_traversal --json artifact to check "
                             "the parallel-traversal acceptance gates against")
    parser.add_argument("--parallel-speedup-min", type=float, default=1.6,
                        help="minimum rmat speedup at 4 threads (skipped on "
                             "machines with < 4 hardware threads)")
    parser.add_argument("--io-gates",
                        help="bench_snapshot_io --json artifact to check the "
                             "ingest/snapshot acceptance gates against")
    parser.add_argument("--io-compression-min", type=float, default=1.7,
                        help="minimum raw/compressed snapshot byte ratio")
    parser.add_argument("--io-load-max", type=float, default=1.15,
                        help="maximum compressed/raw snapshot load wall ratio")
    parser.add_argument("--io-speedup-min", type=float, default=1.6,
                        help="minimum rmat ingest+freeze speedup at 4 threads "
                             "(skipped on machines with < 4 hardware threads)")
    parser.add_argument("--service-gates",
                        help="bench_service_throughput --json artifact to check "
                             "the resident-service acceptance gates against")
    parser.add_argument("--service-fusion-min", type=float, default=1.5,
                        help="minimum fused/unfused plans-per-second ratio at "
                             "8 concurrent clients")
    parser.add_argument("--service-cache-min", type=float, default=10.0,
                        help="minimum cold/hit submit latency ratio for an "
                             "LRU cache hit")
    parser.add_argument("--streaming-gates",
                        help="bench_streaming_ingest --json artifact to check "
                             "the streaming-overlay acceptance gates against")
    parser.add_argument("--streaming-speedup-min", type=float, default=10.0,
                        help="minimum rebuild/incremental end-to-end wall "
                             "ratio on the 1%%-of-|E| churn batch")
    args = parser.parse_args()

    if (not args.current and not args.plan_gates and not args.parallel_gates
            and not args.io_gates and not args.service_gates
            and not args.streaming_gates):
        parser.error("need --current, --plan-gates, --parallel-gates, "
                     "--io-gates, --service-gates and/or --streaming-gates")

    # All requested checks always run so one CI pass reports every failure
    # class; the combined exit status is the worst of them.
    gate_failures = []
    if args.plan_gates:
        try:
            failures = check_plan_gates(args.plan_gates, args.plan_reduction_min,
                                        args.plan_fusion_max)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {e}")
            return 2
        if failures:
            print("\nFAIL: survey-plan gate(s) violated:")
            for f in failures:
                print(f"  {f}")
        else:
            print("OK: survey-plan gates pass")
        gate_failures += failures
    if args.parallel_gates:
        try:
            failures = check_parallel_gates(args.parallel_gates,
                                            args.parallel_speedup_min)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {e}")
            return 2
        if failures:
            print("\nFAIL: parallel-traversal gate(s) violated:")
            for f in failures:
                print(f"  {f}")
        else:
            print("OK: parallel-traversal gates pass")
        gate_failures += failures
    if args.io_gates:
        try:
            failures = check_io_gates(args.io_gates, args.io_compression_min,
                                      args.io_load_max, args.io_speedup_min)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {e}")
            return 2
        if failures:
            print("\nFAIL: ingest/snapshot gate(s) violated:")
            for f in failures:
                print(f"  {f}")
        else:
            print("OK: ingest/snapshot gates pass")
        gate_failures += failures
    if args.service_gates:
        try:
            failures = check_service_gates(args.service_gates,
                                           args.service_fusion_min,
                                           args.service_cache_min)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {e}")
            return 2
        if failures:
            print("\nFAIL: resident-service gate(s) violated:")
            for f in failures:
                print(f"  {f}")
        else:
            print("OK: resident-service gates pass")
        gate_failures += failures
    if args.streaming_gates:
        try:
            failures = check_streaming_gates(args.streaming_gates,
                                             args.streaming_speedup_min)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {e}")
            return 2
        if failures:
            print("\nFAIL: streaming-overlay gate(s) violated:")
            for f in failures:
                print(f"  {f}")
        else:
            print("OK: streaming-overlay gates pass")
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
        ratio = current[name] / base_ns if base_ns > 0 else float("inf")
        flag = "  REGRESSION" if ratio > args.threshold else ""
        print(f"{name:40s} {base_ns:>10.1f}ns {current[name]:>10.1f}ns {ratio:>6.2f}x{flag}")
        compared += 1
        if ratio > args.threshold:
            regressions.append((name, ratio, source))

    if compared == 0:
        print("error: no current case matched any committed baseline")
        return 2
    if regressions:
        print(f"\nFAIL: {len(regressions)} case(s) regressed beyond "
              f"{args.threshold:.2f}x:")
        for name, ratio, source in regressions:
            print(f"  {name}: {ratio:.2f}x vs {source}")
        return 1
    print(f"\nOK: {compared} case(s) within {args.threshold:.2f}x of the "
          f"committed trajectory")
    return 1 if gate_failures else 0


if __name__ == "__main__":
    sys.exit(main())
