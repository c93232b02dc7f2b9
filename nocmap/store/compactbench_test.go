package store

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// storeBenchResult is one recorded run of the append-during-compaction
// benchmark — the BENCH.json "store" section entry format, owned by
// this test.
type storeBenchResult struct {
	Name      string `json:"name"`
	Timestamp string `json:"timestamp,omitempty"`
	// Records is the snapshot volume the compactor streamed; Appends
	// the number of single-op appends measured in each phase.
	Records int `json:"records"`
	Appends int `json:"appends"`
	// CompactionMs is how long the forced pass ran — the window the
	// "during" phase was measured inside.
	CompactionMs float64 `json:"compaction_ms"`
	// Single-op append latency percentiles, microseconds: first with
	// the compactor idle, then while the pass streamed the snapshot.
	BaselineP50Us float64 `json:"baseline_p50_us"`
	BaselineP99Us float64 `json:"baseline_p99_us"`
	DuringP50Us   float64 `json:"during_p50_us"`
	DuringP99Us   float64 `json:"during_p99_us"`
	// RatioP99 = DuringP99Us / BaselineP99Us — the gate holds it ≤ 2
	// unless the two are less than 800 µs apart, and the p50s likewise
	// within 2x or 200 µs.
	RatioP99 float64 `json:"ratio_p99"`
}

// storeBenchFile mirrors cmd/benchjson's BENCH.json layout field for
// field; every section except "store" is carried through as raw JSON.
type storeBenchFile struct {
	GoVersion  json.RawMessage    `json:"go_version,omitempty"`
	GOMAXPROCS json.RawMessage    `json:"gomaxprocs,omitempty"`
	Benchtime  json.RawMessage    `json:"benchtime,omitempty"`
	Pattern    json.RawMessage    `json:"pattern,omitempty"`
	Results    json.RawMessage    `json:"results,omitempty"`
	Store      []storeBenchResult `json:"store,omitempty"`
}

func usPercentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// TestAppendLatencyDuringCompaction is the large-volume store
// benchmark (make bench-store-compact): it seeds a big state, forces a
// throttled compaction pass that streams the whole snapshot over a
// multi-second window, and measures single-op append latency while the
// pass runs. The off-writer-path design's acceptance gate: p50 and p99
// append latency during compaction within 2x the no-compaction
// baseline (or an absolute floor, see below) —
// under the old design the full snapshot write ran under fs.mu and the
// "during" p99 was the entire compaction duration. With
// STORE_BENCH_OUT=<path> it scales up and records the run into that
// BENCH.json's "store" section.
func TestAppendLatencyDuringCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("store bench skipped in -short")
	}
	out := os.Getenv("STORE_BENCH_OUT")
	// time.Sleep granularity inflates the per-record throttle by tens
	// of microseconds, so the pass duration is bounded below, not
	// exactly records*throttle.
	records, appends := 1500, 400
	throttle := 5 * time.Microsecond
	minPass := 60 * time.Millisecond
	if out != "" {
		records, appends = 8000, 1500
		throttle = 200 * time.Microsecond // genuinely multi-second pass
		minPass = 2 * time.Second
	}

	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 1 << 30, CompactBytes: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// Seed the volume the compactor will have to stream.
	pad := `{"pad":"` + strings.Repeat("x", 160) + `"}`
	seed := make([]Op, 0, 256)
	for i := 0; i < records; i++ {
		r := irec(fmt.Sprintf("seed-%06d", i), uint64(i+1), pad)
		r2 := r
		seed = append(seed, Op{Kind: OpPutJob, Rec: &r2})
		if len(seed) == 256 || i == records-1 {
			if err := fs.ApplyOps(seed); err != nil {
				t.Fatal(err)
			}
			seed = seed[:0]
		}
	}

	measure := func(phase string, n int) []float64 {
		lats := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			rec := irec(fmt.Sprintf("bench-%s", phase), uint64(i+1), `{"r":1}`)
			start := time.Now()
			if err := Apply(fs, PutJob(rec)); err != nil {
				t.Fatalf("%s append %d: %v", phase, i, err)
			}
			lats = append(lats, float64(time.Since(start).Microseconds()))
		}
		sort.Float64s(lats)
		return lats
	}

	// Phase 1: baseline, compactor idle.
	base := measure("base", appends)

	// Phase 2: force one throttled pass and append while it runs.
	began := make(chan struct{})
	fs.compactThrottle = func() { time.Sleep(throttle) }
	fs.compactHook = func(step string) {
		if step == "begin" {
			close(began)
		}
	}
	fs.mu.Lock()
	if err := fs.rotateLocked(); err != nil {
		fs.mu.Unlock()
		t.Fatal(err)
	}
	fs.kickCompactorLocked()
	fs.mu.Unlock()
	select {
	case <-began:
	case <-time.After(10 * time.Second):
		t.Fatal("forced compaction never started")
	}

	passStart := time.Now()
	var during []float64
	for i := 0; ; i++ {
		st := fs.CompactionStats()
		if !st.Running {
			break
		}
		rec := irec("bench-during", uint64(i+1), `{"r":1}`)
		start := time.Now()
		if err := Apply(fs, PutJob(rec)); err != nil {
			t.Fatalf("during append %d: %v", i, err)
		}
		if fs.CompactionStats().Running { // attribute only fully-inside samples
			during = append(during, float64(time.Since(start).Microseconds()))
		}
	}
	passMs := float64(time.Since(passStart).Milliseconds())
	if st := fs.CompactionStats(); st.Errors != 0 {
		t.Fatalf("forced compaction failed: %+v", st)
	}
	if passMs < float64(minPass.Milliseconds()) {
		t.Fatalf("compaction pass took %.0fms, want >= %v — the throttle did not bite", passMs, minPass)
	}
	if len(during) < 50 {
		t.Fatalf("only %d appends landed inside the pass — window too small to judge", len(during))
	}
	sort.Float64s(during)

	baseP50, baseP99 := usPercentile(base, 0.50), usPercentile(base, 0.99)
	durP50, durP99 := usPercentile(during, 0.50), usPercentile(during, 0.99)
	ratio := durP99 / baseP99
	t.Logf("records=%d pass=%.0fms base p50/p99 = %.0f/%.0f us, during p50/p99 = %.0f/%.0f us (x%.2f, %d samples)",
		records, passMs, baseP50, baseP99, durP50, durP99, ratio, len(during))

	// The acceptance gate: 2x the baseline at p50 and p99, with absolute
	// floors so scheduler noise cannot flake a run whose baseline is
	// tiny. The recorded run's floors sit above the widest gaps 18
	// alternating runs of this tree and its parent read on a shared
	// 2-core host (p99 +541 µs, p50 +17 µs), and far below a 1 ms stall
	// per append. The quick run shares the host with every package
	// under go test ./..., so it keeps a wide p99 floor and no p50 bound.
	floor99, floor50 := 1500.0, math.Inf(1)
	if out != "" {
		floor99, floor50 = 800, 200
	}
	limit := func(base, floor float64) float64 { return max(2*base, base+floor) }
	if durP99 > limit(baseP99, floor99) || durP50 > limit(baseP50, floor50) {
		t.Fatalf("append during compaction p50/p99 = %.0f/%.0fus vs %.0f/%.0fus baseline (x%.2f at p99) — appends are stalling behind snapshot IO",
			durP50, durP99, baseP50, baseP99, ratio)
	}

	if out == "" {
		return
	}
	res := storeBenchResult{
		Name:          "append-during-compaction",
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Records:       records,
		Appends:       len(during),
		CompactionMs:  passMs,
		BaselineP50Us: baseP50,
		BaselineP99Us: baseP99,
		DuringP50Us:   durP50,
		DuringP99Us:   durP99,
		RatioP99:      math.Round(ratio*100) / 100,
	}
	if err := appendStoreBenchResult(out, res, 12); err != nil {
		t.Fatalf("recording %s: %v", out, err)
	}
	t.Logf("recorded store bench into %s", out)
}

// appendStoreBenchResult records one run into path's "store" section,
// carrying every other BENCH.json section through untouched and
// pruning each name's history to the newest keep entries.
func appendStoreBenchResult(path string, res storeBenchResult, keep int) error {
	bf := &storeBenchFile{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, bf); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	bf.Store = append(bf.Store, res)
	if keep > 0 {
		count := make(map[string]int)
		for _, e := range bf.Store {
			count[e.Name]++
		}
		pruned := bf.Store[:0]
		for _, e := range bf.Store {
			if count[e.Name] > keep {
				count[e.Name]--
				continue
			}
			pruned = append(pruned, e)
		}
		bf.Store = pruned
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
