package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/nocmap"
	"repro/nocmap/server"
	"repro/nocmap/store"
)

// holdAlgo is a per-name blocking algorithm: the retention tests need
// independent holds (unlike the shared test-block channels) to finish
// jobs in a chosen order.
type holdAlgo struct {
	up      chan struct{}
	release chan struct{}
	once    sync.Once
}

// free releases the hold's jobs; it may be called more than once, so
// a test can both free a hold and defer freeing it on failure.
func (h *holdAlgo) free() { h.once.Do(func() { close(h.release) }) }

func registerHold(name string) *holdAlgo {
	h := &holdAlgo{up: make(chan struct{}, 16), release: make(chan struct{})}
	nocmap.Register(name, func(ctx context.Context, req *nocmap.Request) (*nocmap.Result, error) {
		res, err := req.Finish(req.InitialMapping())
		if err != nil {
			return nil, err
		}
		h.up <- struct{}{}
		select {
		case <-h.release:
			return res, nil
		case <-ctx.Done():
			res.Partial = true
			return res, ctx.Err()
		}
	})
	return h
}

var (
	holdA = registerHold("test-hold-a")
	holdB = registerHold("test-hold-b")
)

// TestRestartServesPersistedResults is the durability core in-process:
// a server restarted over the same file store answers previously
// finished jobs byte-identical, re-warms its result cache from disk and
// reports the restored counts.
func TestRestartServesPersistedResults(t *testing.T) {
	dir := t.TempDir()
	js, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	problem := tinyProblemJSON(t, "tiny-durable")
	body := submitBody(t, problem, server.SolveSpec{})

	svcA, errA := server.New(server.Config{Pool: 1, QueueSize: 8, CacheSize: 8, Store: js})
	if errA != nil {
		t.Fatal(errA)
	}
	tsA := serveHTTP(t, svcA)
	var first server.JobStatus
	_, got := post(t, tsA+"/v1/solve", body)
	if err := json.Unmarshal(got, &first); err != nil {
		t.Fatal(err)
	}
	if first.State != server.StateDone || len(first.Result) == 0 {
		t.Fatalf("first solve did not finish done with a result: %+v", first)
	}
	svcA.Close()
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	js2, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svcB, errB := server.New(server.Config{Pool: 1, QueueSize: 8, CacheSize: 8, Store: js2})
	if errB != nil {
		t.Fatal(errB)
	}
	tsB := serveHTTP(t, svcB)

	resp, got := get(t, tsB+"/v1/jobs/"+first.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored job status = %d (body %s)", resp.StatusCode, got)
	}
	var restored server.JobStatus
	if err := json.Unmarshal(got, &restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.Result, first.Result) {
		t.Fatalf("restored result is not byte-identical:\npre:  %s\npost: %s", first.Result, restored.Result)
	}
	if st := svcB.Stats(); st.Restored != 1 {
		t.Fatalf("stats.Restored = %d, want 1", st.Restored)
	}

	// The persisted cache answers a resubmission without re-solving.
	var again server.JobStatus
	_, got = post(t, tsB+"/v1/solve", body)
	if err := json.Unmarshal(got, &again); err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("resubmission after restart missed the restored cache: %+v", again)
	}
	if !bytes.Equal(again.Result, first.Result) {
		t.Fatal("restored cache served a different result")
	}
	svcB.Close()
	js2.Close()
}

// TestReplayReenqueuesInterruptedJobs pins the recovery semantics: a
// store holding queued/running records (what a SIGKILL leaves behind)
// re-enqueues them under their original IDs, solves them and counts
// them in Stats.Recovered.
func TestReplayReenqueuesInterruptedJobs(t *testing.T) {
	ms := store.NewMemStore()
	problem := tinyProblemJSON(t, "tiny-recover")
	spec, _ := json.Marshal(server.SolveSpec{Algorithm: "nmap-single", Split: server.SplitAllPaths})
	for id, state := range map[string]string{
		"job-00000004": store.StateQueued,
		"job-00000007": store.StateRunning,
	} {
		seedJobs(t, ms, store.JobRecord{ID: id, Problem: problem, Spec: spec, State: state})
	}
	svc, err := server.New(server.Config{Pool: 1, QueueSize: 8, CacheSize: 8, Store: ms})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveHTTP(t, svc)
	for _, id := range []string{"job-00000004", "job-00000007"} {
		st := waitState(t, ts, id, server.StateDone)
		if len(st.Result) == 0 {
			t.Fatalf("recovered job %s finished without a result", id)
		}
	}
	if st := svc.Stats(); st.Recovered != 2 {
		t.Fatalf("stats.Recovered = %d, want 2", st.Recovered)
	}
	// The minted-ID counter must be ahead of every replayed ID.
	_, got := post(t, ts+"/v1/jobs", submitBody(t, tinyProblemJSON(t, "tiny-recover-next"), server.SolveSpec{}))
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-00000008" {
		t.Fatalf("next minted ID = %s, want job-00000008 (past the replayed ones)", st.ID)
	}
}

// TestRestartNeverRemintsIDs pins the minted-ID highwater: when
// retention has deleted the records of the numerically-highest job IDs,
// the surviving records' Minted field must still carry the counter
// forward — a restarted server may never reissue an ID a client already
// holds.
func TestRestartNeverRemintsIDs(t *testing.T) {
	ms := store.NewMemStore()
	svc, err := server.New(server.Config{Pool: 2, QueueSize: 8, CacheSize: 0, Retention: 1, Store: ms})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveHTTP(t, svc)

	// A (job-1) runs held while B (job-2) and C (job-3) finish and —
	// with Retention 1 — delete each other's records; A finishes last,
	// evicting C, leaving A's record alone in the store.
	_, got := post(t, ts+"/v1/jobs", submitBody(t, tinyProblemJSON(t, "tiny-mint-a"), server.SolveSpec{Algorithm: "test-hold-a"}))
	var jobA server.JobStatus
	if err := json.Unmarshal(got, &jobA); err != nil {
		t.Fatal(err)
	}
	<-holdA.up
	for _, name := range []string{"tiny-mint-b", "tiny-mint-c"} {
		_, got = post(t, ts+"/v1/solve", submitBody(t, tinyProblemJSON(t, name), server.SolveSpec{}))
		var st server.JobStatus
		if err := json.Unmarshal(got, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("%s finished %q", name, st.State)
		}
	}
	holdA.release <- struct{}{}
	waitState(t, ts, jobA.ID, server.StateDone)
	svc.Close()

	snap, err := ms.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != jobA.ID {
		t.Fatalf("precondition: store should hold only A's record, got %+v", snap.Jobs)
	}

	svc2, err := server.New(server.Config{Pool: 2, QueueSize: 8, CacheSize: 0, Retention: 1, Store: ms})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := serveHTTP(t, svc2)
	_, got = post(t, ts2+"/v1/jobs", submitBody(t, tinyProblemJSON(t, "tiny-mint-d"), server.SolveSpec{}))
	var jobD server.JobStatus
	if err := json.Unmarshal(got, &jobD); err != nil {
		t.Fatal(err)
	}
	if jobD.ID != "job-00000004" {
		t.Fatalf("restart re-minted %s; want job-00000004 (past every ID ever issued, not just surviving records)", jobD.ID)
	}
}

// TestRetentionEvictsByTerminalTransitionOrder is the regression pin
// for the eviction/replay ordering contract: jobs leave the retention
// window in the order they FINISHED, not the order they were submitted
// — and a restart over the same store honors the same order instead of
// resurrecting what the live server already evicted.
func TestRetentionEvictsByTerminalTransitionOrder(t *testing.T) {
	ms := store.NewMemStore()
	svc, err := server.New(server.Config{Pool: 2, QueueSize: 8, CacheSize: 0, Retention: 2, Store: ms})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveHTTP(t, svc)

	// A is submitted before B, but B finishes first.
	_, got := post(t, ts+"/v1/jobs", submitBody(t, tinyProblemJSON(t, "tiny-order-a"), server.SolveSpec{Algorithm: "test-hold-a"}))
	var jobA server.JobStatus
	if err := json.Unmarshal(got, &jobA); err != nil {
		t.Fatal(err)
	}
	<-holdA.up
	_, got = post(t, ts+"/v1/jobs", submitBody(t, tinyProblemJSON(t, "tiny-order-b"), server.SolveSpec{Algorithm: "test-hold-b"}))
	var jobB server.JobStatus
	if err := json.Unmarshal(got, &jobB); err != nil {
		t.Fatal(err)
	}
	<-holdB.up
	holdB.release <- struct{}{}
	waitState(t, ts, jobB.ID, server.StateDone)
	holdA.release <- struct{}{}
	waitState(t, ts, jobA.ID, server.StateDone)

	// C finishes third: the window is [A, C]; B (first to finish) left.
	var jobC server.JobStatus
	_, got = post(t, ts+"/v1/solve", submitBody(t, tinyProblemJSON(t, "tiny-order-c"), server.SolveSpec{}))
	if err := json.Unmarshal(got, &jobC); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts+"/v1/jobs/"+jobB.ID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("B finished first and must be evicted first (terminal order); got status %d", resp.StatusCode)
	}
	stA := waitState(t, ts, jobA.ID, server.StateDone)
	if resp, _ := get(t, ts+"/v1/jobs/"+jobC.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("C evicted too early: %d", resp.StatusCode)
	}
	svc.Close()

	// Restart over the same store: the evicted job must stay gone, the
	// retained ones must come back byte-identical, and further evictions
	// must keep following terminal order (A before C).
	svc2, err := server.New(server.Config{Pool: 2, QueueSize: 8, CacheSize: 0, Retention: 2, Store: ms})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := serveHTTP(t, svc2)
	if resp, _ := get(t, ts2+"/v1/jobs/"+jobB.ID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("replay resurrected evicted job B (status %d)", resp.StatusCode)
	}
	respA, gotA := get(t, ts2+"/v1/jobs/"+jobA.ID)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("A lost across restart: %d", respA.StatusCode)
	}
	var restoredA server.JobStatus
	if err := json.Unmarshal(gotA, &restoredA); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restoredA.Result, stA.Result) {
		t.Fatal("A's restored result drifted")
	}
	_, got = post(t, ts2+"/v1/solve", submitBody(t, tinyProblemJSON(t, "tiny-order-d"), server.SolveSpec{}))
	var jobD server.JobStatus
	if err := json.Unmarshal(got, &jobD); err != nil {
		t.Fatal(err)
	}
	if jobD.State != server.StateDone {
		t.Fatalf("D finished %q", jobD.State)
	}
	if resp, _ := get(t, ts2+"/v1/jobs/"+jobA.ID); resp.StatusCode != http.StatusNotFound {
		t.Fatal("after D, the oldest-finished retained job (A) must be evicted")
	}
	if resp, _ := get(t, ts2+"/v1/jobs/"+jobC.ID); resp.StatusCode != http.StatusOK {
		t.Fatal("C must survive D's arrival (it finished after A)")
	}
}

// TestProfileFastAppliesDefaults pins the service-profile layer: under
// ProfileFast a submission that pins nothing gets FastQueue'd options
// (visible in the canonical key) while repro keeps the request
// untouched — and /v1/info reports the preset.
func TestProfileFastAppliesDefaults(t *testing.T) {
	problem := tinyProblemJSON(t, "tiny-profile")
	body := submitBody(t, problem, server.SolveSpec{})

	repro, err := server.New(server.Config{Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsRepro := serveHTTP(t, repro)
	fast, err := server.New(server.Config{Pool: 1, Profile: server.ProfileFast})
	if err != nil {
		t.Fatal(err)
	}
	tsFast := serveHTTP(t, fast)

	var reproSt, fastSt server.JobStatus
	_, got := post(t, tsRepro+"/v1/solve", body)
	if err := json.Unmarshal(got, &reproSt); err != nil {
		t.Fatal(err)
	}
	_, got = post(t, tsFast+"/v1/solve", body)
	if err := json.Unmarshal(got, &fastSt); err != nil {
		t.Fatal(err)
	}
	if reproSt.State != server.StateDone || fastSt.State != server.StateDone {
		t.Fatalf("states = %q / %q", reproSt.State, fastSt.State)
	}
	if reproSt.Key == fastSt.Key {
		t.Fatal("fast profile must fold its defaults into the canonical key")
	}
	// nmap-single ignores FastQueue and Workers never changes results:
	// the two presets must agree byte for byte here.
	if !bytes.Equal(reproSt.Result, fastSt.Result) {
		t.Fatalf("profiles disagree on an nmap-single solve:\nrepro: %s\nfast:  %s", reproSt.Result, fastSt.Result)
	}

	_, got = get(t, tsFast+"/v1/info")
	var info server.Info
	if err := json.Unmarshal(got, &info); err != nil {
		t.Fatal(err)
	}
	if info.Profile != server.ProfileFast || info.Durable {
		t.Fatalf("info = %+v, want fast profile without durability", info)
	}

	if _, err := server.New(server.Config{Profile: "turbo"}); err == nil {
		t.Fatal("unknown profile must fail New")
	}
}

// TestStatsSurfaceCompaction pins the compaction observability: the
// server's stats expose the backing FileStore's compactions /
// compact_running / segments counters, reached by unwrapping the store
// wrapper chain (here a fault store over the file store).
func TestStatsSurfaceCompaction(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenConfig(dir, store.FileConfig{CompactOps: 16})
	if err != nil {
		t.Fatal(err)
	}
	fault := store.NewFaultStore(fs)
	svc, err := server.New(server.Config{Pool: 1, QueueSize: 8, CacheSize: 8, Store: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer fault.Close()

	// Churn one record far past the trigger through the same store the
	// server persists to, then wait for the pass to publish.
	var churn []store.JobRecord
	for i := 0; i < 48; i++ {
		churn = append(churn, store.JobRecord{ID: "churn", Key: "churn", State: store.StateDone, Seq: uint64(i + 1)})
	}
	seedJobs(t, fault, churn...)
	deadline := time.Now().Add(10 * time.Second)
	for fs.CompactionStats().Compactions == 0 || fs.CompactionStats().Running {
		if time.Now().After(deadline) {
			t.Fatalf("compaction never published: %+v", fs.CompactionStats())
		}
		time.Sleep(time.Millisecond)
	}
	st := svc.Stats()
	if st.Compactions == 0 {
		t.Fatalf("stats did not surface compactions through the wrapper chain: %+v", st)
	}
	if st.StoreSegments == 0 {
		t.Fatalf("stats did not surface the segment count: %+v", st)
	}
}

// seedJobs writes recs to s as one batch through its one write path,
// ApplyOps — the shared helper server tests seed stores with.
func seedJobs(t *testing.T, s store.JobStore, recs ...store.JobRecord) {
	t.Helper()
	ops := make([]store.Op, len(recs))
	for i := range recs {
		ops[i] = store.Op{Kind: store.OpPutJob, Rec: &recs[i]}
	}
	if err := s.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}
}

// serveHTTP exposes a Server over a test listener and cleans the
// listener up (the service itself is closed by each test when it needs
// an ordered shutdown; Server.Close is idempotent).
func serveHTTP(t *testing.T, svc *server.Server) string {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts.URL
}
