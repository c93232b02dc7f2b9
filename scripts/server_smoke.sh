#!/usr/bin/env bash
# Smoke test for nocmapd: boot the real binary on an ephemeral port and
# drive the HTTP API with curl — health, a synchronous solve, an async
# submit/status round trip, a recorded cache hit, a cancel, a
# durable-store restart over a compacted store, a sharded deployment
# (nocmapsh router fronting two backends, a third joining and leaving)
# and a replicated fleet (a replica read, failover, rejoin). CI runs
# this via `make server-smoke`; it needs only bash, curl and the Go
# toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
bin="$workdir/nocmapd"
shbin="$workdir/nocmapsh"
log="$workdir/nocmapd.log"
pids=()
cleanup() {
    [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
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
go build -o "$shbin" ./cmd/nocmapsh

echo "== start"
"$bin" -addr 127.0.0.1:0 -pool 2 >"$log" 2>&1 &
server_pid=$!
base=$(wait_addr "$log" "$server_pid")
echo "   $base"

fail() { echo "FAIL: $1"; echo "--- response: $2"; exit 1; }

echo "== healthz"
health=$(curl -fsS "$base/healthz")
grep -q '"status":"ok"' <<<"$health" || fail "healthz" "$health"

problem='{
  "problem": {
    "app": {"edges": [
      {"from": "cpu", "to": "mem", "bw": 400},
      {"from": "mem", "to": "dsp", "bw": 120},
      {"from": "dsp", "to": "cpu", "bw": 80}]},
    "topology": {"kind": "mesh", "w": 2, "h": 2, "link_bw": 1000}
  },
  "options": {"algorithm": "nmap-single"}
}'

echo "== synchronous solve"
solved=$(curl -fsS "$base/v1/solve" -d "$problem")
grep -q '"state":"done"' <<<"$solved" || fail "sync solve did not finish done" "$solved"
grep -q '"feasible":true' <<<"$solved" || fail "sync solve not feasible" "$solved"

echo "== repeated solve is a cache hit"
again=$(curl -fsS "$base/v1/solve" -d "$problem")
grep -q '"cache_hit":true' <<<"$again" || fail "resubmission was not a cache hit" "$again"
stats=$(curl -fsS "$base/v1/stats")
grep -q '"cache_hits":1' <<<"$stats" || fail "stats did not record the cache hit" "$stats"

echo "== async submit / status / events"
job=$(curl -fsS "$base/v1/jobs" -d "${problem/nmap-single/nmap-split}")
id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$job")
[[ -n "$id" ]] || fail "submit returned no job id" "$job"
status=""
for _ in $(seq 1 100); do
    status=$(curl -fsS "$base/v1/jobs/$id")
    grep -q '"state":"done"' <<<"$status" && break
    grep -qE '"state":"(failed|cancelled)"' <<<"$status" && fail "async job ended badly" "$status"
    sleep 0.1
done
grep -q '"state":"done"' <<<"$status" || fail "async job never finished" "$status"
events=$(curl -fsS "$base/v1/jobs/$id/events")
grep -q '^event: done' <<<"$events" || fail "event stream had no done event" "$events"

echo "== typed error on an infeasible problem"
bad=$(curl -sS "$base/v1/jobs" -d '{
  "problem": {
    "app": {"edges": [{"from": "a", "to": "b", "bw": 1000}]},
    "topology": {"kind": "mesh", "w": 2, "h": 2, "link_bw": 100}}}')
grep -q '"code":"infeasible_bandwidth"' <<<"$bad" || fail "infeasible problem not typed" "$bad"

echo "== cancel a running solve (DELETE /v1/jobs/{id})"
# A 64-core PBB search with a budget of 1e8 expansions: about 80 us
# each on a 2-core host, so hours of work that only the cancel ends.
edges=""
for i in $(seq 0 63); do edges+="{\"from\":\"c$i\",\"to\":\"c$(( (i + 1) % 64 ))\",\"bw\":$(( 40 + i ))},"; done
for i in $(seq 0 2 63); do edges+="{\"from\":\"c$i\",\"to\":\"c$(( (i + 9) % 64 ))\",\"bw\":$(( 25 + i ))},"; done
slow="{\"problem\":{\"app\":{\"edges\":[${edges%,}]},\"topology\":{\"kind\":\"mesh\",\"w\":8,\"h\":8,\"link_bw\":5000}},
  \"options\":{\"algorithm\":\"pbb\",\"max_queue\":4000,\"max_expand\":100000000}}"
sjob=$(curl -fsS "$base/v1/jobs" -d "$slow")
sid=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$sjob")
[[ -n "$sid" ]] || fail "slow submit returned no job id" "$sjob"
for _ in $(seq 1 100); do
    cstatus=$(curl -fsS "$base/v1/jobs/$sid")
    grep -q '"state":"running"' <<<"$cstatus" && break
    sleep 0.1
done
grep -q '"state":"running"' <<<"$cstatus" || fail "slow job never started running" "$cstatus"
curl -fsS -X DELETE "$base/v1/jobs/$sid" >/dev/null
for _ in $(seq 1 100); do
    cstatus=$(curl -fsS "$base/v1/jobs/$sid")
    grep -q '"state":"cancelled"' <<<"$cstatus" && break
    sleep 0.1
done
grep -q '"state":"cancelled"' <<<"$cstatus" || fail "cancelled job did not end cancelled" "$cstatus"
grep -q '"cancelled":1' <<<"$(curl -fsS "$base/v1/stats")" || fail "stats did not count the cancel" "$cstatus"

echo "== graceful shutdown"
kill -TERM "$server_pid"
wait "$server_pid" || true
server_pid=""

echo "== durable store: results survive a hard restart"
# A one-byte compaction threshold, so the reboot reads a snapshot as
# well as the WAL segments written after it.
storedir="$workdir/store"
dlog="$workdir/durable.log"
"$bin" -addr 127.0.0.1:0 -pool 1 -store "$storedir" -store-compact-bytes 1 >"$dlog" 2>&1 &
dpid=$!; pids+=("$dpid")
dbase=$(wait_addr "$dlog" "$dpid")
first=$(curl -fsS "$dbase/v1/solve" -d "$problem")
grep -q '"state":"done"' <<<"$first" || fail "durable solve" "$first"
jobid=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$first")
for _ in $(seq 1 100); do
    dstats=$(curl -fsS "$dbase/v1/stats")
    grep -qE '"compactions":[1-9]' <<<"$dstats" && break
    sleep 0.1
done
grep -qE '"compactions":[1-9]' <<<"$dstats" || fail "the store never compacted" "$dstats"
kill -9 "$dpid"; wait "$dpid" 2>/dev/null || true
dlog2="$workdir/durable2.log"
"$bin" -addr 127.0.0.1:0 -pool 1 -store "$storedir" >"$dlog2" 2>&1 &
dpid=$!; pids+=("$dpid")
dbase=$(wait_addr "$dlog2" "$dpid")
restored=$(curl -fsS "$dbase/v1/jobs/$jobid")
grep -q '"state":"done"' <<<"$restored" || fail "restored job lost after SIGKILL+reboot" "$restored"
dstats=$(curl -fsS "$dbase/v1/stats")
grep -q '"restored":1' <<<"$dstats" || fail "restart did not report the restored job" "$dstats"
kill -TERM "$dpid"; wait "$dpid" 2>/dev/null || true

echo "== sharded deployment: nocmapsh router + 2 backends"
b0log="$workdir/b0.log"; b1log="$workdir/b1.log"; rlog="$workdir/router.log"
"$bin" -addr 127.0.0.1:0 -pool 1 -id-prefix s0- >"$b0log" 2>&1 &
b0pid=$!; pids+=("$b0pid")
"$bin" -addr 127.0.0.1:0 -pool 1 -id-prefix s1- >"$b1log" 2>&1 &
b1pid=$!; pids+=("$b1pid")
b0=$(wait_addr "$b0log" "$b0pid")
b1=$(wait_addr "$b1log" "$b1pid")
"$shbin" -addr 127.0.0.1:0 -backends "$b0,$b1" >"$rlog" 2>&1 &
rpid=$!; pids+=("$rpid")
router=$(wait_addr "$rlog" "$rpid")
echo "   router $router -> $b0 + $b1"

rhealth=$(curl -fsS "$router/healthz")
grep -q '"status":"ok"' <<<"$rhealth" || fail "router health" "$rhealth"

routed=$(curl -fsS "$router/v1/solve" -d "$problem")
grep -q '"state":"done"' <<<"$routed" || fail "routed solve" "$routed"
routed_again=$(curl -fsS "$router/v1/solve" -d "$problem")
grep -q '"cache_hit":true' <<<"$routed_again" || fail "routed resubmission missed its backend cache (routing unstable?)" "$routed_again"

# Job-ID requests come back as 307 redirects to the owning backend;
# curl -L follows them just like the Go client does.
rjob=$(curl -fsS "$router/v1/jobs" -d "${problem/nmap-single/gmap}")
rid=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$rjob")
[[ "$rid" == s0-* || "$rid" == s1-* ]] || fail "routed job id carries no shard prefix" "$rjob"
rstatus=""
for _ in $(seq 1 100); do
    rstatus=$(curl -fsSL "$router/v1/jobs/$rid")
    grep -q '"state":"done"' <<<"$rstatus" && break
    sleep 0.1
done
grep -q '"state":"done"' <<<"$rstatus" || fail "routed job never finished through the redirect" "$rstatus"

mstats=$(curl -fsS "$router/v1/stats")
grep -q '"shards":\[' <<<"$mstats" || fail "merged stats missing shard breakdown" "$mstats"
grep -q '"cache_hits":1' <<<"$mstats" || fail "merged stats missing the fleet cache hit" "$mstats"
malgos=$(curl -fsS "$router/v1/algorithms")
grep -q 'nmap-split' <<<"$malgos" || fail "merged algorithms" "$malgos"

# Elastic membership: a third backend joins the ring, then leaves it.
b2log="$workdir/b2.log"
"$bin" -addr 127.0.0.1:0 -pool 1 -id-prefix s2- >"$b2log" 2>&1 &
b2pid=$!; pids+=("$b2pid")
b2=$(wait_addr "$b2log" "$b2pid")
joined=$(curl -fsS "$router/v1/shards/join" -d "{\"url\":\"$b2\"}")
grep -q "\"$b2\"" <<<"$joined" || fail "join did not add the backend" "$joined"
left=$(curl -fsS "$router/v1/shards/leave" -d "{\"url\":\"$b2\"}")
grep -q "\"$b2\"" <<<"$left" && fail "leave did not remove the backend" "$left"
kill -TERM "$b2pid"; wait "$b2pid" 2>/dev/null || true
routed_after=$(curl -fsS "$router/v1/solve" -d "$problem")
grep -q '"cache_hit":true' <<<"$routed_after" || fail "routing changed after join+leave" "$routed_after"

# Failover: kill one backend; submissions must keep succeeding.
kill -9 "$b1pid"; wait "$b1pid" 2>/dev/null || true
survive=$(curl -fsS "$router/v1/solve" -d "${problem/nmap-single/pmap}")
grep -q '"state":"done"' <<<"$survive" || fail "solve after backend loss" "$survive"
rhealth=$(curl -fsS "$router/healthz")
grep -q '"status":"degraded"' <<<"$rhealth" || fail "router health after backend loss" "$rhealth"

echo "== replicated fleet: kill one backend, its replicas keep answering"
# Two durable backends behind a PROBING router: the router pushes each
# backend's replication target (its ring successor), detects a dead
# backend, promotes its replicas on the successor, and reconciles it
# when it comes back. This is the walkthrough from docs/SERVER.md
# "Replication & failover".
r0log="$workdir/r0.log"; r1log="$workdir/r1.log"; rr_log="$workdir/rrouter.log"
"$bin" -addr 127.0.0.1:0 -pool 1 -id-prefix r0- -store "$workdir/rstore0" >"$r0log" 2>&1 &
r0pid=$!; pids+=("$r0pid")
"$bin" -addr 127.0.0.1:0 -pool 1 -id-prefix r1- -store "$workdir/rstore1" >"$r1log" 2>&1 &
r1pid=$!; pids+=("$r1pid")
r0=$(wait_addr "$r0log" "$r0pid")
r1=$(wait_addr "$r1log" "$r1pid")
"$shbin" -addr 127.0.0.1:0 -backends "$r0,$r1" -probe 50ms -fail-threshold 2 -recover-threshold 2 >"$rr_log" 2>&1 &
rrpid=$!; pids+=("$rrpid")
rrouter=$(wait_addr "$rr_log" "$rrpid")
echo "   probing router $rrouter -> $r0 + $r1"

rsolved=$(curl -fsS "$rrouter/v1/solve" -d "$problem")
grep -q '"state":"done"' <<<"$rsolved" || fail "replicated solve" "$rsolved"
rrid=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$rsolved")

# Wait for ring replication to converge: a replica exists and nothing
# is pending anywhere in the fleet.
for _ in $(seq 1 100); do
    rstats=$(curl -fsS "$rrouter/v1/stats" || true)
    if grep -qE '"replicas":[1-9]' <<<"$rstats" && ! grep -qE '"replication_pending":[1-9]' <<<"$rstats"; then
        break
    fi
    sleep 0.1
done
grep -qE '"replicas":[1-9]' <<<"$rstats" || fail "replication never converged" "$rstats"

# The follower serves the replica's status before any promotion.
if [[ "$rrid" == r0-* ]]; then follower=$r1; else follower=$r0; fi
replica=$(curl -fsS "$follower/v1/replicas/$rrid")
grep -q "\"id\":\"$rrid\"" <<<"$replica" && grep -q '"state":"done"' <<<"$replica" \
    || fail "follower did not serve the replica" "$replica"

# The job's exact answer, then SIGKILL the backend that owns it.
before=$(curl -fsSL "$rrouter/v1/jobs/$rrid")
if [[ "$rrid" == r0-* ]]; then victim_pid=$r0pid; victim_url=$r0; victim_log_args=(-id-prefix r0- -store "$workdir/rstore0")
else victim_pid=$r1pid; victim_url=$r1; victim_log_args=(-id-prefix r1- -store "$workdir/rstore1"); fi
kill -9 "$victim_pid"; wait "$victim_pid" 2>/dev/null || true

# The prober marks it down and promotes its replicas on the successor.
for _ in $(seq 1 100); do
    rshards=$(curl -fsS "$rrouter/v1/shards" || true)
    grep -q '"health":"down"' <<<"$rshards" && grep -qE '"promotions":[1-9]' <<<"$rshards" && break
    sleep 0.1
done
grep -qE '"promotions":[1-9]' <<<"$rshards" || fail "router never promoted the dead backend's replicas" "$rshards"

# The dead backend's job still answers through the router — and with
# exactly the bytes it answered with before the kill.
after=$(curl -fsSL "$rrouter/v1/jobs/$rrid")
[[ "$after" == "$before" ]] || fail "promoted replica answer drifted from the original" "$after"

# Reboot the victim at the same address; the router reconciles it.
victim_port=${victim_url##*:}
vlog="$workdir/victim-reboot.log"
"$bin" -addr "127.0.0.1:$victim_port" -pool 1 "${victim_log_args[@]}" >"$vlog" 2>&1 &
vpid=$!; pids+=("$vpid")
wait_addr "$vlog" "$vpid" >/dev/null
for _ in $(seq 1 100); do
    rshards=$(curl -fsS "$rrouter/v1/shards" || true)
    if ! grep -q '"health":"down"' <<<"$rshards" && grep -qE '"reconciles":[1-9]' <<<"$rshards"; then
        break
    fi
    sleep 0.1
done
grep -qE '"reconciles":[1-9]' <<<"$rshards" || fail "router never reconciled the rejoined backend" "$rshards"
rejoined=$(curl -fsSL "$rrouter/v1/jobs/$rrid")
[[ "$rejoined" == "$before" ]] || fail "answer drifted after the rejoin" "$rejoined"

echo "server smoke OK"
