package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/nocmap/server"
)

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// keyOf computes the canonical key the server caches and coalesces by.
func keyOf(t *testing.T, body []byte) string {
	t.Helper()
	_, canon, spec, serr := server.ParseSubmit(body)
	if serr != nil {
		t.Fatalf("generated body does not parse: %v", serr)
	}
	return server.JobKey(canon, server.ProfileRepro.Apply(spec))
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := newStream(&w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newStream(&w, 7)
		other, _ := newStream(&w, 8)
		ab, err := a.requests(0, 40)
		if err != nil {
			t.Fatal(err)
		}
		bb, _ := b.requests(0, 40)
		ob, _ := other.requests(0, 40)
		for i := range ab {
			if !bytes.Equal(ab[i], bb[i]) {
				t.Fatalf("%s: request %d differs between two streams of seed 7", w.Name, i)
			}
		}
		if bytes.Equal(bytes.Join(ab, nil), bytes.Join(ob, nil)) {
			t.Errorf("%s: seeds 7 and 8 give the same requests", w.Name)
		}
	}
}

func TestDistinctWorkloadsNeverRepeatAKey(t *testing.T) {
	for name, n := range map[string]int{"small-distinct": 3000, "solve-heavy": 300, "fleet-replicated": 1000} {
		w := mustWorkload(t, name)
		st, err := newStream(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]int, n)
		for i := 0; i < n; i++ {
			b, err := st.request(i)
			if err != nil {
				t.Fatal(err)
			}
			k := keyOf(t, b)
			if j, ok := seen[k]; ok {
				t.Fatalf("%s: requests %d and %d share key %s", name, j, i, k)
			}
			seen[k] = i
		}
	}
}

func TestHotRepeatWorkingSetFitsTheCache(t *testing.T) {
	w := mustWorkload(t, "hot-repeat")
	if w.WorkingSet >= cacheSize {
		t.Fatalf("working set %d does not fit nocmapd's %d-entry cache", w.WorkingSet, cacheSize)
	}
	st, err := newStream(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	primed := make(map[string]bool)
	for _, b := range st.set {
		primed[keyOf(t, b)] = true
	}
	if len(primed) != w.WorkingSet {
		t.Fatalf("working set has %d distinct keys, want %d", len(primed), w.WorkingSet)
	}
	for i := 0; i < 2000; i++ {
		b, err := st.request(i)
		if err != nil {
			t.Fatal(err)
		}
		if !primed[keyOf(t, b)] {
			t.Fatalf("request %d is outside the primed working set", i)
		}
	}
}

func TestProcParsers(t *testing.T) {
	status, err := os.ReadFile(filepath.Join("testdata", "proc_status"))
	if err != nil {
		t.Fatal(err)
	}
	if hwm, err := parseVmHWM(string(status)); err != nil || hwm != 56412 {
		t.Errorf("parseVmHWM = %d, %v; want 56412", hwm, err)
	}
	stat, err := os.ReadFile(filepath.Join("testdata", "proc_stat"))
	if err != nil {
		t.Fatal(err)
	}
	// The command name holds spaces and parentheses; utime 1234 + stime 567.
	if ticks, err := parseCPUTicks(string(stat)); err != nil || ticks != 1801 {
		t.Errorf("parseCPUTicks = %d, %v; want 1801", ticks, err)
	}
	if _, err := parseVmHWM("VmRSS:\t1 kB\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
	if _, err := parseCPUTicks("42 (x) S 1 2"); err == nil {
		t.Error("parseCPUTicks accepted a truncated stat line")
	}
}

func TestProcParsersOnThisProcess(t *testing.T) {
	u, err := readUsage(os.Getpid())
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	if u.HWMKiB <= 0 {
		t.Errorf("VmHWM of a running process is %d KiB", u.HWMKiB)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: "r", Name: "http", Start: 0, End: 10_000},
		{ID: "a", Parent: "r", Name: "server.decode", Start: 1_000, End: 3_000},
		{ID: "b", Parent: "r", Name: "nocmap.solve.nmap-single", Start: 2_000, End: 6_000},
		{ID: "c", Parent: "r", Name: "nocmap.encode", Start: 9_000, End: 12_000},
	}
	self := selfTimes(spans)
	// Children cover [1,6) and [9,10) of the parent's [0,10) µs.
	if got := self["http"]; len(got) != 1 || got[0] != 4 {
		t.Errorf("http self time = %v µs, want [4]", got)
	}
	if got := self["nocmap.encode"]; got[0] != 3 {
		t.Errorf("leaf self time = %v µs, want its duration 3", got)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var tr tracer
	s := &shot{Index: 9, Due: time.Millisecond, Sent: 2 * time.Millisecond, Done: 5 * time.Millisecond}
	tr.request(time.Second, s, &replayed{decode: 100 * time.Microsecond, keyDur: 10 * time.Microsecond,
		solve: time.Millisecond, encode: 50 * time.Microsecond, alg: "nmap-split"})
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("read %d spans, want 7", len(got))
	}
	for _, sp := range got {
		if sp.Req != 9 {
			t.Errorf("span %s has request %d, want 9", sp.ID, sp.Req)
		}
	}
	self := selfTimes(got)
	if u := self["http"][0]; u != 3000-1160 {
		t.Errorf("unattributed = %v µs, want %v", u, 3000-1160)
	}
}

func TestScheduleStats(t *testing.T) {
	ms := time.Millisecond
	shots := []shot{
		{Due: 0, Sent: 0},
		{Due: 1 * ms, Sent: 1 * ms},
		{Due: 2 * ms, Sent: 6 * ms}, // both senders busy: sent late
		{Due: 3 * ms, Sent: 7 * ms},
		{Due: 4 * ms, Sent: 8 * ms},
		{Due: 5 * ms, Unsent: true},
	}
	g := scheduleStats(shots)
	if g.BacklogMax != 3 {
		t.Errorf("backlog max = %d, want 3", g.BacklogMax)
	}
	if g.LagP99 != 4*ms {
		t.Errorf("lag p99 = %v, want 4ms", g.LagP99)
	}
	if !g.Growing {
		t.Error("a backlog that peaks at the end was not flagged")
	}
}

func TestWindowedEstimators(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	xs[10] = 1e6 // one stall moves one window only
	if p, k := windowedP99(xs); k != 5 || p != 98 {
		t.Errorf("windowedP99 = %v over %d windows, want 98 over 5", p, k)
	}
	if p, k := windowedP99(xs[:1500]); k != 1 || p != 99 {
		t.Errorf("windowedP99 of 1500 = %v over %d windows, want the plain p99 99", p, k)
	}
	done := make([]float64, 300)
	for i := range done {
		done[i] = float64(i+1) / 100 // 100 per second for 3 s
	}
	rates := windowRates(done, 3)
	if len(rates) != 6 {
		t.Fatalf("windowRates gave %d windows over 3 s, want 6", len(rates))
	}
	for _, r := range rates {
		if r < 99.5 || r > 100.5 {
			t.Errorf("window rate %v, want 100", r)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with
// the BENCHMARK.json the repository declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].Name)
		}
	}
}
