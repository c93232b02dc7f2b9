GO ?= go

# Allocation ceilings the kernel benches must hold (see cmd/benchjson);
# CI fails the build when any regresses.
BENCH_GATES = MapSinglePathSwapDelta<=0,RouteSinglePath<=0,PBBVOPD<=2000,ParseSubmit/8core<=110,ParseSubmit/64core<=1100,WriteJobStatus<=4,ApplyOpsCacheHit<=5,SubmitCacheHit<=40

.PHONY: build test nocbench-test race bench bench-json bench-gate bench-service-gate bench-store-compact experiments apicheck api-update importgate linkcheck server-smoke fuzz-smoke chaos-smoke chaos-smoke-r2 cover census nocmapvet lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# nocbench is its own module (nocbench/go.mod, replacing repro with
# ../), so `go test ./...` at the root never builds it. Vet and test it
# here: it compiles against the store and server API it drives.
nocbench-test:
	cd nocbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/baseline/ -run 'Race|Parallel|Workers'
	$(GO) test -race ./nocmap/ ./nocmap/server/ ./nocmap/client/ ./nocmap/shard/ ./nocmap/store/ ./nocmap/httpfault/

# Short deterministic-budget fuzz pass over the wire formats, the
# request decoder, the submit memo and the hand-written JobStatus and
# WAL encoders (seed corpora live in testdata/fuzz/ and the targets'
# f.Add calls). CI runs this; drop the -fuzztime for a real fuzzing
# session.
FUZZTIME = 10s
fuzz-smoke:
	$(GO) test ./nocmap -run '^$$' -fuzz FuzzProblemJSONRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./nocmap -run '^$$' -fuzz FuzzResultJSONRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./nocmap/server -run '^$$' -fuzz FuzzParseSubmit -fuzztime $(FUZZTIME)
	$(GO) test ./nocmap/server -run '^$$' -fuzz FuzzSubmitTwice -fuzztime $(FUZZTIME)
	$(GO) test ./nocmap/server -run '^$$' -fuzz FuzzJobStatusEncoding -fuzztime $(FUZZTIME)
	$(GO) test ./nocmap/store -run '^$$' -fuzz FuzzWALEncoding -fuzztime $(FUZZTIME)

# Integration-coverage census (docs/CENSUS.md): cover-built nocmapd and
# nocmapsh through server-smoke, the exec-level crash and chaos tests
# and one nocbench run per workload; prints every function in
# nocmap/{server,shard,store} those runs leave at 0%. Output in .census/.
# Takes a few minutes; not part of CI.
census:
	bash scripts/census.sh

# Per-package coverage floors (scripts/cover_thresholds.txt). CI fails
# when nocmap, nocmap/server, nocmap/store or nocmap/shard drop below
# their recorded baselines.
cover:
	bash scripts/cover_gate.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x -benchmem .

# Write the machine-readable kernel bench summary (ns/op, allocs/op) so
# the perf trajectory is tracked across PRs.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH.json

# Bench smoke with allocs/op regression gates on the hot kernels.
bench-gate:
	$(GO) run ./cmd/benchjson -out BENCH.json -gate '$(BENCH_GATES)'

# Service gate: 8 s nocbench runs of small-distinct (one durable
# nocmapd, group commit behind a 1ms fsync, no cache hits) and
# fleet-replicated (nocmapsh routing to two replicating backends) at
# fixed seeds. Fails on any wrong answer, any failed request, or a
# probe-scaled peak_rps / p50_ms past the committed floors in
# scripts/service_gate_floors.txt. CI runs this.
bench-service-gate:
	bash scripts/service_gate.sh

# Store-level large-volume benchmark: seed a multi-thousand-record
# FileStore, force a throttled multi-second compaction pass, and gate
# p99 single-op append latency DURING the pass at <= 2x the idle
# baseline (plus record the run into BENCH.json's "store" section).
# Proves appends never stall behind snapshot IO. CI runs this.
bench-store-compact:
	STORE_BENCH_OUT=$(abspath BENCH.json) $(GO) test -count=1 -run TestAppendLatencyDuringCompaction -v ./nocmap/store/

experiments:
	$(GO) run ./cmd/experiments

# Public packages whose go doc surface is pinned by api/nocmap.golden.txt.
API_PKGS = ./nocmap ./nocmap/experiments ./nocmap/explore ./nocmap/server ./nocmap/client ./nocmap/store ./nocmap/shard ./nocmap/httpfault

# Diff the public API (go doc -all) against the committed golden dump, so
# accidental surface changes fail CI; regenerate intentionally with
# `make api-update`.
apicheck:
	@for p in $(API_PKGS); do $(GO) doc -all $$p; done > .api.out
	@diff -u api/nocmap.golden.txt .api.out \
		|| (echo "FAIL: public API drifted from api/nocmap.golden.txt (run 'make api-update' if intentional)"; rm -f .api.out; exit 1)
	@rm -f .api.out
	@echo "api surface OK"

api-update:
	@mkdir -p api
	@for p in $(API_PKGS); do $(GO) doc -all $$p; done > api/nocmap.golden.txt
	@echo "wrote api/nocmap.golden.txt"

# The repo's own analyzer suite (internal/analysis + cmd/nocmapvet):
# lock/fsync discipline, determinism in the reproduction kernels,
# context propagation on request paths, and the import gate. Exits
# non-zero on any unbaselined finding; see docs/STATIC_ANALYSIS.md.
nocmapvet:
	$(GO) run ./cmd/nocmapvet ./...

# Fail when a binary, example or the service layer bypasses the public
# API: everything under cmd/ and examples/, plus the nocmapd server and
# its client, must import repro/nocmap..., never repro/internal/...
# Analyzer-backed (this replaced a shell grep): it resolves real import
# declarations under the build's own file set — tags respected, _test.go
# files included, comments mentioning "repro/internal/..." ignored.
importgate:
	$(GO) run ./cmd/nocmapvet -importgate ./...
	@echo "import gate OK"

# Formatting and vet are blocking everywhere; staticcheck + govulncheck
# run at the versions pinned in scripts/lint.sh when installed (CI
# installs them; offline machines skip with a notice).
lint:
	bash scripts/lint.sh

# Fail on dead relative links in README.md and docs/ (runs as part of
# `go test .` too, as TestDocLinks).
linkcheck:
	$(GO) test -run TestDocLinks .

# Replicated-fleet chaos test under the race detector: nocmapsh + 3
# durable nocmapd processes, sustained load, SIGKILL a backend
# mid-solve, assert zero lost results or queued jobs, byte-identical
# replayed responses, and anti-entropy convergence after the reboot.
# CI runs this.
chaos-smoke:
	$(GO) test -race -count=1 ./nocmap/shard/ -run TestChaosFleetE2E -timeout 420s -v
	$(GO) test -race -count=1 ./nocmap/store/ -run TestStoreCompactionCrash -timeout 120s -v

# Quorum-durability chaos gate under the race detector: nocmapsh with
# -replication-factor 2 + 4 durable nocmapd processes, sustained load
# with durability=replicated baselines, then SIGKILL a backend AND its
# first ring successor. Asserts every replicated-acked result survives
# byte-identical on the second successor, queued jobs re-run, the fleet
# serves through the double outage, and both reboots reconcile. CI runs
# this next to chaos-smoke.
chaos-smoke-r2:
	$(GO) test -race -count=1 ./nocmap/shard/ -run TestChaosDoubleFailureE2E -timeout 480s -v

# Boot a real nocmapd process and drive the HTTP API end to end with
# curl: health, a synchronous solve, an async submit/poll round trip, a
# recorded cache hit, durable-store crash recovery, and a sharded
# deployment (nocmapsh router + 2 backends). CI runs this.
server-smoke:
	bash scripts/server_smoke.sh
