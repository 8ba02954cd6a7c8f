#!/usr/bin/env python3
"""Run the pipeline benchmark repeatedly and summarise each metric.

    python3 bench/pipeline/calibrate.py [--workload W ...]
                                        [--out bench/pipeline/BASELINE.json]

Every run is invoked as the harness invokes it, with BENCHMARK.json's
run_seconds as --seconds.  For every workload it makes RUNS untraced runs
with seeds 1, 2, ... (each seed is a different input), REPEATS untraced
runs of seed 1 alone, and TRACED traced runs of seeds 1, ...
It reports per end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and two spreads, (q3 - q1) / median: across
seeds, which is what the harness holds against each bound, and across
repeats of one seed, which is the noise a same-seed comparison sees.  Both
are checked against a third of the metric's bound in BENCHMARK.json.  The
traced runs give the per-layer medians and trace.overhead_frac, the gap
between the traced and the untraced end-to-end medians of the same seeds.
Exits 1 when a run fails, a digest does not repeat, or a spread is too wide
for its bound.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+) n=(\d+)$")
RUNS, REPEATS, TRACED = 10, 5, 2


def run_once(workload, seed, seconds, traced):
    cmd = ["bash", "bench/pipeline/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    values, digest = {}, None
    for line in lines[:-1]:
        if " result_digest " in line:
            digest = line.split()[-1]
        m = LINE.match(line)
        if m:
            values[m.group(2)] = (float(m.group(3)), m.group(4))
    return {"seed": seed, "result": result, "values": values, "digest": digest, "wall_s": wall}


def summarise(samples):
    ordered = sorted(samples)
    q1, med, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    med = statistics.median(ordered)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": samples}


def params():
    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            return "unknown"
    cache = os.path.join(ROOT, ".bench_build/pipeline/CMakeCache.txt")
    compiler, build_type = "unknown", "unknown"
    if os.path.exists(cache):
        for line in open(cache):
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = first_line([line.split("=", 1)[1].strip(), "--version"])
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    l3 = "unknown"
    for index in range(8):
        path = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        try:
            if open(f"{path}/level").read().strip() == "3":
                l3 = open(f"{path}/size").read().strip()
        except OSError:
            break
    sha = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip() or "unknown"
    return {"hw_threads": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
            "compiler": compiler, "build_type": build_type, "git_sha": sha, "l3": l3,
            "ranks": 2, "threads_per_rank": 2}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, RUNS + 1))

    report = {"params": params(), "run_seconds": seconds, "runs": RUNS,
              "repeats": REPEATS, "seeds": seeds, "workloads": {}}
    ok = True
    for w in workloads:
        runs = [run_once(w, s, seconds, False) for s in seeds]
        repeats = [run_once(w, 1, seconds, False) for _ in range(REPEATS)]
        traced = [run_once(w, s, seconds, True) for s in seeds[:TRACED]]
        for r in runs + repeats + traced:
            if not r["result"]["correct"]:
                print(f"{w}: seed {r['seed']} failed its checks")
                ok = False
        digests = {}
        for r in runs + repeats + traced:
            if digests.setdefault(str(r["seed"]), r["digest"]) != r["digest"]:
                print(f"{w}: seed {r['seed']} digest {r['digest']} != {digests[str(r['seed'])]}")
                ok = False
        entry = {"digests": digests, "wall_s": summarise([r["wall_s"] for r in runs]),
                 "end_to_end": {}, "per_layer": {}}
        for name, bound in bounds.items():
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            same = summarise([r["result"]["metrics"][name]["value"] for r in repeats])
            stats["same_seed"] = {k: same[k] for k in ("median", "spread", "values")}
            entry["end_to_end"][name] = stats
            limit = bound / 3
            wide = stats["spread"] >= limit or same["spread"] >= limit
            ok = ok and not wide
            print(f"{w:16s} {name:14s} median {stats['median']:<12.6g} spread: seeds "
                  f"{stats['spread']:.4f}, one seed {same['spread']:.4f} "
                  f"(bound/3 {limit:.4f}) {'WIDE' if wide else 'ok'}")
        for name, metric in traced[0]["result"]["metrics"].items():
            stats = summarise([r["result"]["metrics"][name]["value"] for r in traced])
            stats["unit"] = metric["unit"]
            entry["per_layer"][name] = stats
        # The measured cost of tracing: traced vs untraced medians of the same
        # seeds, per end-to-end metric (traced runs print those lines too).
        entry["per_layer"]["trace.overhead_frac"] = {
            name: statistics.median(r["values"][name][0] for r in traced)
            / statistics.median(r["values"][name][0] for r in runs[:TRACED]) - 1
            for name in bounds}
        report["workloads"][w] = entry
        print(f"{w:16s} wall per run {entry['wall_s']['median']:.1f} s, "
              f"seed 1 digest {digests['1']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
