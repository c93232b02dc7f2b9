#!/usr/bin/env bash
# Integration-coverage census of the serving code: which functions in
# nocmap/{server,shard,store} does no real-binary run reach?
#
#   make census          # or: bash scripts/census.sh
#
# It builds nocmapd and nocmapsh with `-cover -coverpkg=repro/...` and
# runs them through every exec-level path the repo has:
#   - scripts/server_smoke.sh,
#   - the exec tests that build and kill real binaries
#     (TestCrashRecoveryE2E, TestStoreQueueFlagE2E, TestChaosFleetE2E,
#     TestChaosDoubleFailureE2E), without -race,
#   - one 8 s nocbench run per workload, with nocbench's program built
#     here and pointed at the cover-built binaries through -bin (nothing
#     under nocbench/ is edited or rebuilt by its own script).
# Each process writes its counters to GOCOVERDIR when it exits. A
# process ended by SIGKILL writes none: the crash and chaos victims and
# the smoke test's killed backends count only through their reboots and
# the processes that stop gracefully.
#
# The counters are merged with `go tool covdata` and reported with
# `go tool cover -func`. The last step prints every function in the
# three packages that the runs left at 0.0%; docs/CENSUS.md gives each
# one an outcome. Everything lands under .census/ (git-ignored).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.census"
rm -rf "$out"
mkdir -p "$out/cov" "$out/merged" "$out/bin" "$out/work"
cover_flags="-cover -coverpkg=repro/..."

echo "== server smoke"
GOFLAGS="$cover_flags" GOCOVERDIR="$out/cov" bash scripts/server_smoke.sh >"$out/smoke.log" 2>&1 \
	|| { cat "$out/smoke.log"; exit 1; }
sleep 1 # the smoke test's last processes exit after its trap returns

echo "== exec tests"
# Run the test binaries directly: under `go test -cover` the go command
# points the test's GOCOVERDIR (and so its children's) at a temporary
# directory it then discards. The tests' own `go build` picks the cover
# flags up from GOFLAGS.
exec_test() { # package, -run pattern
	go test -c -o "$out/bin/$(basename "$1").test" "./$1"
	(cd "$1" && GOFLAGS="$cover_flags" GOCOVERDIR="$out/cov" \
		"$out/bin/$(basename "$1").test" -test.count=1 -test.timeout=600s -test.run "$2") >>"$out/exec.log" 2>&1 \
		|| { cat "$out/exec.log"; exit 1; }
}
exec_test nocmap/server 'TestCrashRecoveryE2E|TestStoreQueueFlagE2E'
exec_test nocmap/shard 'TestChaosFleetE2E|TestChaosDoubleFailureE2E'

echo "== nocbench, 8 s per workload"
go build $cover_flags -o "$out/bin/" ./cmd/nocmapd ./cmd/nocmapsh
(cd nocbench && GOFLAGS= go build -o "$out/bin/nocbench" .)
for w in small-distinct solve-heavy hot-repeat fleet-replicated; do
	GOCOVERDIR="$out/cov" "$out/bin/nocbench" -bin "$out/bin" -work "$out/work/$w" \
		-workload "$w" -seconds 8 >"$out/nocbench-$w.json" 2>"$out/nocbench-$w.log" \
		|| { cat "$out/nocbench-$w.log"; exit 1; }
done

echo "== merge"
go tool covdata merge -i "$out/cov" -o "$out/merged"
go tool covdata textfmt -i "$out/merged" -o "$out/cover.out"
go tool cover -func "$out/cover.out" >"$out/func.txt"
grep -E '^repro/nocmap/(server|shard|store)/' "$out/func.txt" |
	awk '$NF == "0.0%" { sub("^repro/", "", $1); sub(":[0-9]+:$", "", $1); print $1, $2 }' |
	sort >"$out/zero.txt"
total=$(grep -cE '^repro/nocmap/(server|shard|store)/' "$out/func.txt")
echo "$(wc -l <"$out/zero.txt") of $total functions in nocmap/{server,shard,store} at 0%:"
cat "$out/zero.txt"
