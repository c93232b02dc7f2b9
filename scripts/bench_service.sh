#!/usr/bin/env bash
# Service-level load benchmark: boot a durable nocmapd once per store
# mode ("group": one fsync per batch the server's flusher drains;
# "sync": the fsync-per-record baseline), drive each with cmd/nocmapload's seeded
# deterministic request stream at a sustained rate, and record jobs/sec
# + P50/P85/P99 latency into BENCH.json's "service" section. The result
# cache is disabled so every request exercises the store write path —
# the regime the two modes differ in — and the store runs behind a 1ms
# injected fsync latency so the disk cost is a realistic SSD's rather
# than the CI host's page cache: with it, the sync baseline saturates
# near 1000 records/sec while group commit amortizes the same disk
# across whole batches. `make bench-service` runs this;
# `make bench-service-gate` adds the XmR control-chart check on top.
#
#   scripts/bench_service.sh [RPS] [DURATION] [OUT]
set -euo pipefail
cd "$(dirname "$0")/.."

rps=${1:-900}
duration=${2:-5s}
out=${3:-BENCH.json}

workdir=$(mktemp -d)
bin="$workdir/nocmapd"
loadbin="$workdir/nocmapload"
cleanup() {
    [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

# wait_addr LOGFILE PID -> echoes the base URL once the process logs it.
wait_addr() {
    local logfile=$1 pid=$2 base=""
    for _ in $(seq 1 100); do
        base=$(sed -n 's/.*listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$logfile" | head -1)
        [[ -n "$base" ]] && { echo "$base"; return 0; }
        kill -0 "$pid" 2>/dev/null || { echo "FAIL: process died:" >&2; cat "$logfile" >&2; return 1; }
        sleep 0.1
    done
    echo "FAIL: process never reported its address:" >&2; cat "$logfile" >&2; return 1
}

echo "== build"
go build -o "$bin" ./cmd/nocmapd
go build -o "$loadbin" ./cmd/nocmapload

for mode in group sync; do
    echo "== bench-service: store-mode=$mode rps=$rps duration=$duration"
    storedir="$workdir/store-$mode"
    log="$workdir/nocmapd-$mode.log"
    "$bin" -addr 127.0.0.1:0 -store "$storedir" -store-mode "$mode" \
        -store-fault latency=1ms -cache -1 >"$log" 2>&1 &
    server_pid=$!
    base=$(wait_addr "$log" "$server_pid")
    "$loadbin" -url "$base" -rps "$rps" -duration "$duration" \
        -name "solve-$mode" -store-mode "$mode" -out "$out"
    kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    server_pid=""
done
echo "== bench-service: recorded into $out"
