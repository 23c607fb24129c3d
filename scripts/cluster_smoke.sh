#!/usr/bin/env bash
# Multi-process cluster smoke test: a router and two shard nodes as real
# OS processes on UDP loopback, driven by kgc-admin. Asserts the scripted
# session succeeds, the telemetry plane merges node pushes into a
# non-empty cluster view, a cross-process leave trace reassembles fully
# stitched, and the admin shutdown reports wal_tail=0 (every shard's
# final snapshot landed; a restart would replay nothing). Then shard 0 is
# restarted over its store twice: with the same flags it recovers, with
# another --degree it exits 2 naming the setting.
#
#   scripts/cluster_smoke.sh [target-dir]
#
# Expects kgc-router / kgc-node / kgc-admin already built (release).
set -euo pipefail

bindir="${1:-target/release}"
for bin in kgc-router kgc-node kgc-admin; do
  [[ -x "$bindir/$bin" ]] || { echo "missing $bindir/$bin (cargo build --release -p kg-cluster)"; exit 2; }
done

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

router_addr="127.0.0.1:7600"
node0_addr="127.0.0.1:7610"
node1_addr="127.0.0.1:7611"

"$bindir/kgc-router" --bind "$router_addr" --shards 2 \
  --peer "0=$node0_addr" --peer "1=$node1_addr" --span 1=2 \
  --flight-recorder "$workdir/flight.json" \
  >"$workdir/router.log" 2>&1 &
pids+=($!)

for s in 0 1; do
  addr_var="node${s}_addr"
  "$bindir/kgc-node" --shard "$s" --bind "${!addr_var}" --router "$router_addr" \
    --dir "$workdir/shard-$s" --batch-ms 50 --telemetry-ms 100 \
    >"$workdir/node-$s.log" 2>&1 &
  pids+=($!)
done

# Give the processes a moment to bind before the session starts.
sleep 1

"$bindir/kgc-admin" --router "$router_addr" --timeout-ms 30000 \
  session --group 1 --users 8
"$bindir/kgc-admin" --router "$router_addr" --timeout-ms 30000 \
  stats --expect 2

# Mid-run telemetry scrape: the merged cluster view must contain both
# router-side request counters and node-pushed snapshot counters. Nodes
# push every 100ms, so retry briefly until at least one push from every
# shard has merged.
metrics=""
for _ in $(seq 1 50); do
  metrics="$("$bindir/kgc-admin" --router "$router_addr" --timeout-ms 5000 \
    metrics --format prom)"
  if grep -q "kg_requests_total" <<<"$metrics" \
    && grep -Eq 'kg_cluster_telemetry_snapshots_total\{shard="0"\} [1-9]' <<<"$metrics" \
    && grep -Eq 'kg_cluster_telemetry_snapshots_total\{shard="1"\} [1-9]' <<<"$metrics"; then
    break
  fi
  metrics=""
  sleep 0.1
done
[[ -n "$metrics" ]] || {
  echo "FAIL: merged metrics view never contained router + node counters"
  cat "$workdir"/router.log "$workdir"/node-*.log
  exit 1
}
echo "metrics scrape: merged view OK ($(wc -l <<<"$metrics") lines)"

# Cross-process trace: the latest stitched trace must reassemble
# end-to-end — router ingress hop and shard-node handling spans linked
# by one trace_id. Only control requests are traced and the session
# ends with leaves, so the latest trace is the final leave. Under
# --batch-ms its request-path spans are the parse + WAL append (the
# rekey itself runs at the interval flush, outside the request trace).
# Node spans arrive with telemetry pushes, so retry until they land.
trace=""
for _ in $(seq 1 50); do
  trace="$("$bindir/kgc-admin" --router "$router_addr" --timeout-ms 5000 \
    trace --id last)"
  if grep -q "stitched=yes" <<<"$trace" \
    && grep -q "node.parse" <<<"$trace" \
    && grep -q "router.recv" <<<"$trace"; then
    break
  fi
  trace=""
  sleep 0.1
done
[[ -n "$trace" ]] || {
  echo "FAIL: no fully-stitched cross-process leave trace reassembled"
  "$bindir/kgc-admin" --router "$router_addr" --timeout-ms 5000 trace --id last || true
  cat "$workdir"/router.log "$workdir"/node-*.log
  exit 1
}
echo "trace reassembly: stitched leave trace OK"
echo "$trace"

summary="$("$bindir/kgc-admin" --router "$router_addr" --timeout-ms 30000 shutdown)"
echo "$summary"
grep -q "wal_tail=0" <<<"$summary" || {
  echo "FAIL: shutdown summary did not report wal_tail=0"
  cat "$workdir"/router.log "$workdir"/node-*.log
  exit 1
}

# The nodes and router exit on their own after a clean shutdown.
for pid in "${pids[@]}"; do
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || continue 2
    sleep 0.1
  done
  echo "FAIL: pid $pid still running after shutdown"
  exit 1
done
pids=()

# The router writes its flight-recorder dump on clean shutdown.
grep -q '"snapshots"' "$workdir/flight.json" || {
  echo "FAIL: flight recorder dump missing or empty"
  exit 1
}
echo "flight recorder: dump OK"

# Reopen shard 0's store: the same flags recover its slice; the same flags
# plus another tree degree are refused before anything replays, because
# the degree is part of the replay contract pinned in the log header.
node0_flags=(--shard 0 --bind "$node0_addr" --router "$router_addr"
  --dir "$workdir/shard-0" --batch-ms 50 --telemetry-ms 100)
"$bindir/kgc-node" "${node0_flags[@]}" >"$workdir/reopen.log" 2>&1 &
pids+=($!)
for _ in $(seq 1 100); do
  grep -q "1 slice(s) recovered" "$workdir/reopen.log" && break
  sleep 0.1
done
grep -q "1 slice(s) recovered" "$workdir/reopen.log" || {
  echo "FAIL: shard 0 did not reopen its store"
  cat "$workdir/reopen.log"
  exit 1
}
kill "${pids[@]}"
wait "${pids[@]}" 2>/dev/null || true
pids=()
status=0
timeout 30 "$bindir/kgc-node" "${node0_flags[@]}" --degree 8 >"$workdir/refused.log" 2>&1 || status=$?
if [[ $status -ne 2 ]] || ! grep -q "recovery failed: .*degree" "$workdir/refused.log"; then
  echo "FAIL: reopening with --degree 8 exited $status, expected 2 naming the degree"
  cat "$workdir/refused.log"
  exit 1
fi
echo "store reopen: recovered under the same flags; --degree 8 refused: $(head -1 "$workdir/refused.log")"

echo "cluster smoke: OK"
