#!/usr/bin/env bash
# Build bench_pipeline from this checkout and run one workload, or all four.
#
#   bench/pipeline/run.sh [--workload W] [--seed N] [--seconds S]
#                         [--trace 0|1|DIR] [--json OUT]
#
# Without --workload every workload runs in its own process, one after the
# other; --json OUT then collects their result objects into one file.  The
# build lives in .bench_build/pipeline; its output goes to stderr so the
# last line of stdout is the result.  Exits non-zero when a build step or
# any correctness check fails.
set -euo pipefail

cd "$(dirname "$0")/../.."
build=.bench_build/pipeline
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S bench/pipeline -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_pipeline -j 4 >&2
bin="$build/bench_pipeline"

workload=""
json=""
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --json) json="${2:?--json needs a path}"; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

if [[ -n "$workload" ]]; then
  exec "$bin" --workload "$workload" ${json:+--json "$json"} "${args[@]}"
fi

status=0
combined=""
for w in social-count web-fqdn temporal-stream service-mixed; do
  out=$("$bin" --workload "$w" "${args[@]}") || status=1
  printf '%s\n' "$out"
  combined+="${combined:+, }\"$w\": $(tail -n 1 <<<"$out")"
done
if [[ -n "$json" ]]; then
  printf '{%s}\n' "$combined" >"$json"
fi
exit "$status"
