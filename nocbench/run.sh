#!/usr/bin/env bash
# Builds nocmapd, nocmapsh and the nocbench program from this checkout's
# source, then runs one benchmark run:
#
#   bash nocbench/run.sh --workload small-distinct --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# binaries, the servers' stores and logs, and the traced runs' span files
# (.bench_build/nocbench/work/traces/).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/nocbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
out="$build/nocbench"
mkdir -p "$out/bin" "$out/work" "$out/tmp" "$out/gocache" "$out/gopath"

# Keep the toolchain inside the checkout and offline.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd nocbench && go build -o "$out/bin/" repro/cmd/nocmapd repro/cmd/nocmapsh .)

exec "$out/bin/nocbench" -bin "$out/bin" -work "$out/work" "$@"
