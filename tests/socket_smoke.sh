#!/usr/bin/env bash
# Cross-backend multi-process smoke test (ctest: socket_smoke).
#
# Launches tripoll_cli N times as genuinely separate OS processes joined
# through TRIPOLL_RANK/TRIPOLL_NRANKS/TRIPOLL_SOCKET_DIR (the external-
# launcher path of the socket backend) and asserts that triangle counts and
# per-phase survey metrics are bit-identical to the inproc threads-as-ranks
# run on the rmat/temporal/web ablation presets, plus a file-based count
# through the fork launcher (`--backend socket` without TRIPOLL_RANK).
#
# Usage: socket_smoke.sh <path-to-tripoll_cli>
set -u
CLI="${1:?usage: socket_smoke.sh <tripoll_cli>}"
RANKS=4
DELTA="${TRIPOLL_SMOKE_DELTA:--2}"

work="$(mktemp -d "${TMPDIR:-/tmp}/tripoll-smoke-XXXXXX")"
trap 'rm -rf "$work"' EXIT
fail=0

# Run one CLI invocation as $RANKS separate processes; prints rank 0's stdout.
run_socket_external() {
  local sockdir="$work/sock.$$.$RANDOM"
  mkdir -p "$sockdir"
  local pids=() r
  for r in $(seq 0 $((RANKS - 1))); do
    TRIPOLL_RANK=$r TRIPOLL_NRANKS=$RANKS TRIPOLL_SOCKET_DIR="$sockdir" \
      "$CLI" "$@" --backend socket >"$work/out.$r" 2>"$work/err.$r" &
    pids+=($!)
  done
  local status=0 p
  for p in "${pids[@]}"; do
    wait "$p" || status=1
  done
  if [ "$status" -ne 0 ]; then
    echo "socket_smoke: rank process failed for: $*" >&2
    cat "$work"/err.* >&2
    return 1
  fi
  cat "$work/out.0"
}

echo "== preset surveys: inproc vs $RANKS socket processes (delta $DELTA) =="
for preset in rmat temporal web; do
  "$CLI" preset "$preset" "$RANKS" "$DELTA" >"$work/inproc.$preset" || fail=1
  run_socket_external preset "$preset" "$RANKS" "$DELTA" >"$work/socket.$preset" || fail=1
  if diff -u "$work/inproc.$preset" "$work/socket.$preset"; then
    echo "preset $preset: IDENTICAL"
  else
    echo "preset $preset: MISMATCH between inproc and socket backends" >&2
    fail=1
  fi
done

echo "== projected fused survey plan: inproc vs $RANKS socket processes =="
"$CLI" plan rmat "$RANKS" "$DELTA" >"$work/inproc.plan" || fail=1
run_socket_external plan rmat "$RANKS" "$DELTA" >"$work/socket.plan" || fail=1
if diff -u "$work/inproc.plan" "$work/socket.plan"; then
  echo "plan rmat: IDENTICAL"
else
  echo "plan rmat: MISMATCH between inproc and socket backends" >&2
  fail=1
fi

echo "== file-based count through the fork launcher =="
"$CLI" gen rmat 10 "$work/g.txt" >/dev/null || fail=1
inproc_count="$("$CLI" count "$work/g.txt" "$RANKS" | grep -o 'triangles [0-9]*')"
socket_count="$("$CLI" count "$work/g.txt" "$RANKS" --backend socket | grep -o 'triangles [0-9]*')"
echo "inproc: $inproc_count   socket: $socket_count"
if [ -z "$inproc_count" ] || [ "$inproc_count" != "$socket_count" ]; then
  echo "socket_smoke: triangle count mismatch" >&2
  fail=1
fi

# Both orderings must agree across backends as well.
ordering_inproc="$("$CLI" count "$work/g.txt" "$RANKS" --ordering degeneracy | grep -o 'triangles [0-9]*')"
ordering_socket="$("$CLI" count "$work/g.txt" "$RANKS" --ordering degeneracy --backend socket | grep -o 'triangles [0-9]*')"
echo "degeneracy inproc: $ordering_inproc   socket: $ordering_socket"
if [ -z "$ordering_inproc" ] || [ "$ordering_inproc" != "$ordering_socket" ]; then
  echo "socket_smoke: degeneracy-ordering count mismatch" >&2
  fail=1
fi

echo "== frozen CSR storage: inproc vs $RANKS socket processes =="
"$CLI" frozen rmat "$RANKS" "$DELTA" >"$work/inproc.frozen" || fail=1
run_socket_external frozen rmat "$RANKS" "$DELTA" >"$work/socket.frozen" || fail=1
if diff -u "$work/inproc.frozen" "$work/socket.frozen"; then
  echo "frozen rmat: IDENTICAL"
else
  echo "frozen rmat: MISMATCH between inproc and socket backends" >&2
  fail=1
fi

echo "== snapshot save (inproc) / load (both backends, mmap in forked ranks) =="
"$CLI" snapshot save "$work/g.txt" "$work/snap" "$RANKS" --ordering degeneracy \
  >"$work/snap.save" || fail=1
"$CLI" snapshot load "$work/snap" "$RANKS" >"$work/inproc.snapload" || fail=1
run_socket_external snapshot load "$work/snap" "$RANKS" >"$work/socket.snapload" || fail=1
if diff -u "$work/inproc.snapload" "$work/socket.snapload"; then
  echo "snapshot load: IDENTICAL"
else
  echo "snapshot load: MISMATCH between inproc and socket backends" >&2
  fail=1
fi
# The loaded survey must agree with the straight degeneracy-ordered count.
snap_count="$(grep -o 'triangles [0-9]*' "$work/inproc.snapload" | head -1)"
echo "snapshot: $snap_count   direct: $ordering_inproc"
if [ -z "$snap_count" ] || [ "$snap_count" != "$ordering_inproc" ]; then
  echo "socket_smoke: snapshot-loaded triangle count mismatch" >&2
  fail=1
fi

echo "== compressed snapshot: save --compress --threads 4, load on both backends =="
# Parallel ingest+freeze feeding the delta/varint codec must reproduce the
# raw snapshot's survey output byte-for-byte once loaded, on both backends.
"$CLI" snapshot save "$work/g.txt" "$work/snap_cmp" "$RANKS" --ordering degeneracy \
  --compress --threads 4 >"$work/snap_cmp.save" || fail=1
"$CLI" snapshot load "$work/snap_cmp" "$RANKS" >"$work/inproc.snapload.cmp" || fail=1
run_socket_external snapshot load "$work/snap_cmp" "$RANKS" >"$work/socket.snapload.cmp" || fail=1
# The first line echoes the prefix, which legitimately differs; every
# metric line below it must match the raw snapshot's output exactly.
if diff -u <(tail -n +2 "$work/inproc.snapload") <(tail -n +2 "$work/inproc.snapload.cmp"); then
  echo "compressed snapshot load (inproc): IDENTICAL to raw"
else
  echo "compressed snapshot load (inproc): MISMATCH vs raw snapshot" >&2
  fail=1
fi
if diff -u "$work/inproc.snapload.cmp" "$work/socket.snapload.cmp"; then
  echo "compressed snapshot load (socket): IDENTICAL"
else
  echo "compressed snapshot load: MISMATCH between inproc and socket backends" >&2
  fail=1
fi
# The compressed files must actually be smaller than the raw ones.
raw_bytes="$(cat "$work"/snap.r*.tpsnap 2>/dev/null | wc -c)"
cmp_bytes="$(cat "$work"/snap_cmp.r*.tpsnap 2>/dev/null | wc -c)"
echo "snapshot bytes: raw $raw_bytes   compressed $cmp_bytes"
if [ -z "$cmp_bytes" ] || [ "$cmp_bytes" -eq 0 ] || [ "$cmp_bytes" -ge "$raw_bytes" ]; then
  echo "socket_smoke: compressed snapshot is not smaller than raw" >&2
  fail=1
fi

echo "== streaming overlay: ingest on both backends, --compact round trip =="
# Split the edge list 90/10: freeze the head into a --meta snapshot, stream
# the tail in as a timestamped batch.  Overlay (base+delta) and compacted
# surveys must be bit-identical across backends, the overlay count must
# equal the whole edge list's direct count, and the compacted v3 snapshot
# must reload to that same count.
total_lines="$(wc -l <"$work/g.txt")"
head_lines=$((total_lines * 9 / 10))
head -n "$head_lines" "$work/g.txt" >"$work/g_base.txt"
tail -n +"$((head_lines + 1))" "$work/g.txt" >"$work/g_batch.txt"
"$CLI" snapshot save "$work/g_base.txt" "$work/ov_snap" "$RANKS" --meta \
  >/dev/null || fail=1
"$CLI" ingest "$work/ov_snap" "$work/g_batch.txt" "$RANKS" --compact --compress \
  >"$work/inproc.ingest" || fail=1
run_socket_external ingest "$work/ov_snap" "$work/g_batch.txt" "$RANKS" \
  --compact --compress >"$work/socket.ingest" || fail=1
if diff -u "$work/inproc.ingest" "$work/socket.ingest"; then
  echo "ingest: IDENTICAL"
else
  echo "ingest: MISMATCH between inproc and socket backends" >&2
  fail=1
fi
ov_count="$(grep '^overlay ' "$work/inproc.ingest" | grep -o 'triangles [0-9]*' | grep -o '[0-9]*')"
compact_count="$(grep -o 'compacted triangles [0-9]*' "$work/inproc.ingest" | grep -o '[0-9]*$')"
echo "overlay: ${ov_count:-<none>}   compacted: ${compact_count:-<none>}   direct: ${inproc_count#triangles }"
if [ -z "${ov_count:-}" ] || [ "triangles $ov_count" != "$inproc_count" ]; then
  echo "socket_smoke: overlay triangle count diverged from direct count" >&2
  fail=1
fi
if [ "${compact_count:-}" != "${ov_count:-}" ]; then
  echo "socket_smoke: compaction changed the triangle count" >&2
  fail=1
fi
"$CLI" snapshot load "$work/ov_snap-compacted" "$RANKS" >"$work/compact.load" || fail=1
reload_count="$(grep -o 'triangles [0-9]*' "$work/compact.load" | head -1)"
echo "compacted reload: ${reload_count:-<none>}"
if [ "${reload_count:-}" != "triangles $ov_count" ]; then
  echo "socket_smoke: compacted snapshot reloaded to a different count" >&2
  fail=1
fi
# --threads reaches the overlay survey; its output must not move with it.
"$CLI" ingest "$work/ov_snap" "$work/g_batch.txt" "$RANKS" --threads 1 \
  >"$work/inproc.ingest.t1" || fail=1
"$CLI" ingest "$work/ov_snap" "$work/g_batch.txt" "$RANKS" --threads 4 \
  >"$work/inproc.ingest.t4" || fail=1
if diff -u "$work/inproc.ingest.t1" "$work/inproc.ingest.t4"; then
  echo "ingest threads 4: IDENTICAL"
else
  echo "ingest threads 4: MISMATCH vs single-threaded run" >&2
  fail=1
fi

echo "== parallel traversal: --threads sweep over the frozen snapshot =="
# The loaded graph is frozen CSR storage, so --threads engages the parallel
# engine; every printed metric (triangles, volume, messages, pulls,
# candidates) must be bit-identical at every thread count on both backends.
for t in 2 4 8; do
  "$CLI" snapshot load "$work/snap" "$RANKS" --threads "$t" \
    >"$work/inproc.snapload.t$t" || fail=1
  if diff -u "$work/inproc.snapload" "$work/inproc.snapload.t$t"; then
    echo "threads $t (inproc): IDENTICAL"
  else
    echo "threads $t (inproc): MISMATCH vs single-threaded run" >&2
    fail=1
  fi
done
run_socket_external snapshot load "$work/snap" "$RANKS" --threads 4 \
  >"$work/socket.snapload.t4" || fail=1
if diff -u "$work/inproc.snapload" "$work/socket.snapload.t4"; then
  echo "threads 4 (socket): IDENTICAL"
else
  echo "threads 4 (socket): MISMATCH vs inproc single-threaded run" >&2
  fail=1
fi

echo "== resident survey service: serve + query vs direct count =="
# The daemon mmaps a --meta snapshot and serves fused plans; the count
# unit's fires must equal the straight `count` of the same edge list, the
# repeat query must be answered from the cache (identical output, no second
# traversal), and SHUTDOWN must exit 0.
"$CLI" snapshot save "$work/g.txt" "$work/svc_snap" "$RANKS" --meta \
  >/dev/null 2>&1 || fail=1
svc_ep="unix:$work/svc.sock"
"$CLI" serve "$work/svc_snap" "$RANKS" --endpoint "$svc_ep" --window 0 \
  2>"$work/svc.err" &
svc_pid=$!
"$CLI" query "$svc_ep" count hot closure maxlabel >"$work/query.1" || fail=1
"$CLI" query "$svc_ep" count hot closure maxlabel >"$work/query.2" || fail=1
if diff -u "$work/query.1" "$work/query.2"; then
  echo "repeat query: IDENTICAL (served from cache)"
else
  echo "repeat query: MISMATCH -- cache reply diverged" >&2
  fail=1
fi
svc_stats="$("$CLI" query "$svc_ep" stats)"
echo "$svc_stats"
echo "$svc_stats" | grep -q "hits 1 " || { echo "socket_smoke: expected exactly one cache hit" >&2; fail=1; }
echo "$svc_stats" | grep -q "traversals 1 " || { echo "socket_smoke: cache hit must not re-traverse" >&2; fail=1; }
echo "$svc_stats" | grep -q "invalidated 0" || { echo "socket_smoke: unexpected cache invalidations" >&2; fail=1; }
# Windowed plan units: the all-inclusive window [0, 1000000) must agree with
# the plain count (every generated timestamp lies below 1000000), a narrower
# window must fire on at most as many triangles, and the round costs one
# traversal per distinct window on top of the shared base traversal (3 more).
"$CLI" query "$svc_ep" count window:0:1000000 window:200000:800000 \
  >"$work/query.w" || fail=1
w_count="$(grep -o 'unit count param 0 fires [0-9]*' "$work/query.w" | grep -o '[0-9]*$')"
w_wide="$(grep 'unit window param 1000000 ' "$work/query.w" | grep -o 'fires [0-9]*' | grep -o '[0-9]*')"
w_narrow="$(grep -v 'param 1000000 ' "$work/query.w" | grep 'unit window' | grep -o 'fires [0-9]*' | grep -o '[0-9]*')"
echo "window fires: count ${w_count:-<none>}   wide ${w_wide:-<none>}   narrow ${w_narrow:-<none>}"
if [ -z "${w_wide:-}" ] || [ "$w_wide" != "${w_count:-}" ]; then
  echo "socket_smoke: all-inclusive window diverged from plain count" >&2
  fail=1
fi
if [ -z "${w_narrow:-}" ] || [ "$w_narrow" -gt "$w_wide" ]; then
  echo "socket_smoke: narrow window fired more than the wide window" >&2
  fail=1
fi
"$CLI" query "$svc_ep" stats | grep -q "traversals 4 " \
  || { echo "socket_smoke: windowed round should add 3 traversals" >&2; fail=1; }
svc_count="$(grep -o 'unit count param 0 fires [0-9]*' "$work/query.1" | grep -o '[0-9]*$')"
direct_count="${inproc_count#triangles }"
echo "service count: ${svc_count:-<none>}   direct: $direct_count"
if [ -z "${svc_count:-}" ] || [ "$svc_count" != "$direct_count" ]; then
  echo "socket_smoke: service count diverged from direct count" >&2
  fail=1
fi
"$CLI" query "$svc_ep" shutdown >/dev/null || fail=1
if wait "$svc_pid"; then
  echo "service shutdown: exit 0"
else
  echo "socket_smoke: service exited nonzero after SHUTDOWN" >&2
  cat "$work/svc.err" >&2
  fail=1
fi

echo "== resident survey service: SIGTERM drains and exits 0 =="
"$CLI" serve "$work/svc_snap" "$RANKS" --endpoint "unix:$work/svc2.sock" \
  2>"$work/svc2.err" &
svc2_pid=$!
# A served query proves the daemon is up before the signal lands.
"$CLI" query "unix:$work/svc2.sock" count >/dev/null || fail=1
kill -TERM "$svc2_pid"
if wait "$svc2_pid"; then
  echo "SIGTERM: graceful exit 0"
else
  echo "socket_smoke: SIGTERM exit was nonzero" >&2
  cat "$work/svc2.err" >&2
  fail=1
fi

echo "== multi-node launcher: TRIPOLL_HOSTS TCP path on localhost =="
# Four localhost "nodes" rendezvous over TCP through tools/launch_hosts.sh;
# rank 0's preset output must be bit-identical to the inproc run.  One
# retry on a different port block absorbs collisions with other tests.
launcher="$(dirname "$0")/../tools/launch_hosts.sh"
launch_ok=0
for attempt in 1 2; do
  base=$((20000 + (($$ + attempt * 977)) % 20000))
  {
    echo "# four local ranks          "
    echo "127.0.0.1:$base"
    echo "127.0.0.1:$((base + 1))"
    echo ""
    echo "127.0.0.1:$((base + 2))"
    echo "127.0.0.1:$((base + 3))"
  } >"$work/hosts.txt"
  if bash "$launcher" "$work/hosts.txt" \
       "$CLI" preset rmat "$RANKS" "$DELTA" --backend socket \
       >"$work/launch.out" 2>"$work/launch.err"; then
    launch_ok=1
    break
  fi
done
if [ "$launch_ok" -ne 1 ]; then
  echo "socket_smoke: launch_hosts.sh failed on both port blocks" >&2
  cat "$work/launch.err" >&2
  fail=1
elif diff -u "$work/inproc.rmat" "$work/launch.out"; then
  echo "launch_hosts preset rmat: IDENTICAL"
else
  echo "launch_hosts preset rmat: MISMATCH vs inproc" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "socket_smoke: FAILED" >&2
  exit 1
fi
echo "socket_smoke: OK"
