package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/nocmap"
	"repro/nocmap/server"
	"repro/nocmap/store"
)

// The blocking test algorithm lets the tests hold a solve mid-flight:
// it packages the greedy initial mapping, then parks until the test
// signals doneCh or the job is cancelled (returning the mapping marked
// Partial, like the real iterating algorithms).
var (
	blockEmit = make(chan int)      // receive: emit that many progress events
	blockDone = make(chan struct{}) // receive: finish cleanly
	blockUp   = make(chan struct{}, 16)
)

func init() {
	nocmap.Register("test-block", func(ctx context.Context, req *nocmap.Request) (*nocmap.Result, error) {
		res, err := req.Finish(req.InitialMapping())
		if err != nil {
			return nil, err
		}
		blockUp <- struct{}{} // the solve is now running
		for {
			select {
			case n := <-blockEmit:
				for i := 0; i < n; i++ {
					req.Emit(nocmap.Event{Phase: "block", Step: i + 1, Total: n, Best: res.Cost.Comm})
				}
			case <-blockDone:
				return res, nil
			case <-ctx.Done():
				res.Partial = true
				return res, ctx.Err()
			}
		}
	})
}

// newTestServer starts a service with one worker (so queue order is
// deterministic) behind an httptest server.
func newTestServer(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	return newConfiguredServer(t, server.Config{Pool: 1, QueueSize: 8, CacheSize: 8})
}

// newConfiguredServer boots an arbitrary config behind httptest.
func newConfiguredServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	svc, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// tinyProblemJSON is a 3-core application on a 2x2 mesh.
func tinyProblemJSON(t *testing.T, name string) []byte {
	t.Helper()
	return meshProblemJSON(t, name, 2, 2)
}

// meshProblemJSON is tinyProblemJSON's application on a w x h mesh.
func meshProblemJSON(t *testing.T, name string, w, h int) []byte {
	t.Helper()
	app := nocmap.NewCoreGraph(name)
	app.Connect("a", "b", 100)
	app.Connect("b", "c", 50)
	mesh, err := nocmap.NewMesh(w, h, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nocmap.NewProblem(app, mesh)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// post sends a JSON body and decodes the response envelope.
func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func submitBody(t *testing.T, problem []byte, spec server.SolveSpec) []byte {
	t.Helper()
	body, err := json.Marshal(server.SubmitRequest{Problem: problem, Options: spec})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// errCode extracts the typed error code of an error envelope.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var envelope struct {
		Error server.ErrorPayload `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("response %q is not an error envelope: %v", body, err)
	}
	return envelope.Error.Code
}

func TestSubmitBadJSON(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string][]byte{
		"truncated":    []byte(`{"problem": {`),
		"not-json":     []byte(`hello`),
		"empty-object": []byte(`{}`),
		"bad-problem":  []byte(`{"problem": {"app": 17}}`),
	} {
		t.Run(name, func(t *testing.T) {
			resp, got := post(t, ts.URL+"/v1/jobs", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, got)
			}
			if code := errCode(t, got); code != server.CodeBadRequest {
				t.Fatalf("code = %q, want %q", code, server.CodeBadRequest)
			}
		})
	}
}

func TestSubmitInfeasibleProblem(t *testing.T) {
	_, ts := newTestServer(t)
	// One core pushes 1000 MB/s but a 2x2 mesh node with 100 MB/s links
	// can carry at most 200 — ErrInfeasibleBandwidth at construction.
	body := []byte(`{"problem": {
		"app": {"name": "hot", "edges": [{"from": "a", "to": "b", "bw": 1000}]},
		"topology": {"kind": "mesh", "w": 2, "h": 2, "link_bw": 100}}}`)
	resp, got := post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", resp.StatusCode, got)
	}
	if code := errCode(t, got); code != server.CodeInfeasible {
		t.Fatalf("code = %q, want %q", code, server.CodeInfeasible)
	}
}

func TestSubmitUnknownAlgorithm(t *testing.T) {
	_, ts := newTestServer(t)
	body := submitBody(t, tinyProblemJSON(t, "tiny-unknown-algo"), server.SolveSpec{Algorithm: "anneal"})
	resp, got := post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", resp.StatusCode, got)
	}
	if code := errCode(t, got); code != server.CodeUnknownAlgorithm {
		t.Fatalf("code = %q, want %q", code, server.CodeUnknownAlgorithm)
	}
}

func TestSubmitBadSplit(t *testing.T) {
	_, ts := newTestServer(t)
	body := submitBody(t, tinyProblemJSON(t, "tiny-bad-split"), server.SolveSpec{Split: "sometimes"})
	resp, got := post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", resp.StatusCode, got)
	}
	if code := errCode(t, got); code != server.CodeBadRequest {
		t.Fatalf("code = %q, want %q", code, server.CodeBadRequest)
	}
}

func TestStatusNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	resp, got := get(t, ts.URL+"/v1/jobs/job-99999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if code := errCode(t, got); code != server.CodeNotFound {
		t.Fatalf("code = %q, want %q", code, server.CodeNotFound)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestCacheHitVsMiss pins the LRU behavior: the first synchronous solve
// runs the solver, the identical resubmission is answered from the
// cache, marked cache_hit and counted in the stats — with
// byte-identical results. A different worker count must still hit (it
// never changes results), a different algorithm must miss.
func TestCacheHitVsMiss(t *testing.T) {
	svc, ts := newTestServer(t)
	problem := tinyProblemJSON(t, "tiny-cache")
	body := submitBody(t, problem, server.SolveSpec{})

	var first server.JobStatus
	resp, got := post(t, ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status %d (body %s)", resp.StatusCode, got)
	}
	if err := json.Unmarshal(got, &first); err != nil {
		t.Fatal(err)
	}
	if first.State != server.StateDone || first.CacheHit {
		t.Fatalf("first solve: state %q cache_hit %v, want done miss", first.State, first.CacheHit)
	}

	var second server.JobStatus
	_, got = post(t, ts.URL+"/v1/solve", body)
	if err := json.Unmarshal(got, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatalf("identical resubmission was not a cache hit: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached result drifted from the solved one")
	}

	var withWorkers server.JobStatus
	_, got = post(t, ts.URL+"/v1/solve", submitBody(t, problem, server.SolveSpec{Workers: -1}))
	if err := json.Unmarshal(got, &withWorkers); err != nil {
		t.Fatal(err)
	}
	if !withWorkers.CacheHit {
		t.Fatal("worker count participated in the cache key; results are worker-independent")
	}

	var otherAlgo server.JobStatus
	_, got = post(t, ts.URL+"/v1/solve", submitBody(t, problem, server.SolveSpec{Algorithm: "gmap"}))
	if err := json.Unmarshal(got, &otherAlgo); err != nil {
		t.Fatal(err)
	}
	if otherAlgo.CacheHit {
		t.Fatal("different algorithm must not hit the cache")
	}

	st := svc.Stats()
	if st.CacheHits != 2 || st.Solved != 2 {
		t.Fatalf("stats = %+v, want 2 cache hits and 2 solves", st)
	}
}

// waitState polls a job until it reaches the wanted state.
func waitState(t *testing.T, base, id, want string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, got := get(t, base+"/v1/jobs/"+id)
		var st server.JobStatus
		if err := json.Unmarshal(got, &st); err != nil {
			t.Fatalf("decoding %s: %v", got, err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelMidSolveReturnsPartial drives the headline cancellation
// contract: DELETE on a running job unwinds the solver through its
// context and the final status carries the salvaged Result.Partial.
func TestCancelMidSolveReturnsPartial(t *testing.T) {
	_, ts := newTestServer(t)
	body := submitBody(t, tinyProblemJSON(t, "tiny-cancel"), server.SolveSpec{Algorithm: "test-block"})
	resp, got := post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	<-blockUp // the solver holds the job mid-flight now

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	final := waitState(t, ts.URL, st.ID, server.StateCancelled)
	if final.Error == nil || final.Error.Code != server.CodeCancelled {
		t.Fatalf("final error = %+v, want code %q", final.Error, server.CodeCancelled)
	}
	var res nocmap.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("cancelled job carries no decodable result: %v (body %s)", err, final.Result)
	}
	if !res.Partial {
		t.Fatal("cancelled mid-solve result must be marked Partial")
	}
	if len(res.Assignment) == 0 {
		t.Fatal("partial result must carry the salvaged assignment")
	}
}

// TestCancelQueuedJob pins the before-start path: a queued job
// cancels immediately, without a result.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t)
	// Occupy the single worker, then queue a second (distinct) job.
	blocker := submitBody(t, tinyProblemJSON(t, "tiny-blocker"), server.SolveSpec{Algorithm: "test-block"})
	_, got := post(t, ts.URL+"/v1/jobs", blocker)
	var lead server.JobStatus
	if err := json.Unmarshal(got, &lead); err != nil {
		t.Fatal(err)
	}
	<-blockUp

	queued := submitBody(t, tinyProblemJSON(t, "tiny-queued"), server.SolveSpec{})
	_, got = post(t, ts.URL+"/v1/jobs", queued)
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateQueued {
		t.Fatalf("second job state = %q, want queued", st.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled server.JobStatus
	if err := json.NewDecoder(dresp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if cancelled.State != server.StateCancelled || len(cancelled.Result) != 0 {
		t.Fatalf("queued cancel: %+v, want immediate cancelled without result", cancelled)
	}

	blockDone <- struct{}{} // release the worker
	waitState(t, ts.URL, lead.ID, server.StateDone)
}

// TestCoalescing submits the same problem+options twice while the first
// is still solving: the second must attach to the first computation and
// share its outcome instead of solving again.
func TestCoalescing(t *testing.T) {
	svc, ts := newTestServer(t)
	body := submitBody(t, tinyProblemJSON(t, "tiny-coalesce"), server.SolveSpec{Algorithm: "test-block"})
	_, got := post(t, ts.URL+"/v1/jobs", body)
	var lead server.JobStatus
	if err := json.Unmarshal(got, &lead); err != nil {
		t.Fatal(err)
	}
	<-blockUp

	_, got = post(t, ts.URL+"/v1/jobs", body)
	var follower server.JobStatus
	if err := json.Unmarshal(got, &follower); err != nil {
		t.Fatal(err)
	}
	if !follower.Coalesced {
		t.Fatalf("identical in-flight submission was not coalesced: %+v", follower)
	}
	if follower.Key != lead.Key {
		t.Fatalf("keys differ: %s vs %s", follower.Key, lead.Key)
	}

	blockDone <- struct{}{} // one release finishes both
	leadFinal := waitState(t, ts.URL, lead.ID, server.StateDone)
	followerFinal := waitState(t, ts.URL, follower.ID, server.StateDone)
	if !bytes.Equal(leadFinal.Result, followerFinal.Result) {
		t.Fatal("coalesced follower got a different result than its leader")
	}
	if st := svc.Stats(); st.Coalesced != 1 || st.Solved != 2 {
		t.Fatalf("stats = %+v, want 1 coalesced and 2 jobs finished done", st)
	}
}

// TestEventsStream subscribes to a held job, has it emit progress, and
// asserts the SSE framing: progress events then one terminal done.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t)
	body := submitBody(t, tinyProblemJSON(t, "tiny-sse"), server.SolveSpec{Algorithm: "test-block"})
	_, got := post(t, ts.URL+"/v1/jobs", body)
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	<-blockUp

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	blockEmit <- 3
	blockDone <- struct{}{}

	var progress int
	var done server.JobStatus
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	var event string
	var data string
	for sc.Scan() && !sawDone {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "progress":
				var ev server.JobEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad progress payload %q: %v", data, err)
				}
				if ev.JobID != st.ID || ev.Phase != "block" {
					t.Fatalf("unexpected event %+v", ev)
				}
				progress++
			case "done":
				if err := json.Unmarshal([]byte(data), &done); err != nil {
					t.Fatalf("bad done payload %q: %v", data, err)
				}
				sawDone = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress != 3 {
		t.Fatalf("saw %d progress events, want 3", progress)
	}
	if !sawDone || done.State != server.StateDone {
		t.Fatalf("terminal event missing or wrong: sawDone=%v state=%q", sawDone, done.State)
	}
}

// TestQueueFull pins the backpressure path.
func TestQueueFull(t *testing.T) {
	svc, ts := newConfiguredServer(t, server.Config{Pool: 1, QueueSize: 1, CacheSize: 0})
	// Occupy the worker, fill the queue slot, then overflow.
	_, got := post(t, ts.URL+"/v1/jobs",
		submitBody(t, tinyProblemJSON(t, "tiny-full-0"), server.SolveSpec{Algorithm: "test-block"}))
	var lead server.JobStatus
	if err := json.Unmarshal(got, &lead); err != nil {
		t.Fatal(err)
	}
	<-blockUp
	post(t, ts.URL+"/v1/jobs", submitBody(t, tinyProblemJSON(t, "tiny-full-1"), server.SolveSpec{}))
	resp, got := post(t, ts.URL+"/v1/jobs", submitBody(t, tinyProblemJSON(t, "tiny-full-2"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, got)
	}
	if code := errCode(t, got); code != server.CodeQueueFull {
		t.Fatalf("code = %q, want %q", code, server.CodeQueueFull)
	}
	blockDone <- struct{}{}
	if st := svc.Stats(); st.Submitted != 2 {
		t.Fatalf("stats.Submitted = %d, want 2 (the rejected submission must not count)", st.Submitted)
	}
}

// TestSyncDisconnectSparesSharedComputation pins the abandon semantics:
// a synchronous caller dropping its connection must not cancel a solve
// that coalesced followers still wait on.
func TestSyncDisconnectSparesSharedComputation(t *testing.T) {
	_, ts := newTestServer(t)
	body := submitBody(t, tinyProblemJSON(t, "tiny-abandon"), server.SolveSpec{Algorithm: "test-block"})

	// A: synchronous solve on a cancellable request.
	ctx, cancelA := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-blockUp // A's job is running

	// B: identical async submission, coalesced onto A's job.
	_, got := post(t, ts.URL+"/v1/jobs", body)
	var follower server.JobStatus
	if err := json.Unmarshal(got, &follower); err != nil {
		t.Fatal(err)
	}
	if !follower.Coalesced {
		t.Fatalf("second submission not coalesced: %+v", follower)
	}

	cancelA() // A walks away
	<-aDone
	time.Sleep(50 * time.Millisecond) // let the abandon path run
	if st := waitState(t, ts.URL, follower.ID, server.StateRunning); st.State != server.StateRunning {
		t.Fatalf("follower state = %q after leader's client disconnected, want running", st.State)
	}

	blockDone <- struct{}{} // release: the shared solve completes for B
	final := waitState(t, ts.URL, follower.ID, server.StateDone)
	if len(final.Result) == 0 {
		t.Fatal("follower finished without a result")
	}
}

// TestRetentionEvictsOldFinishedJobs pins the bounded job index: beyond
// Config.Retention, the oldest finished statuses stop resolving.
func TestRetentionEvictsOldFinishedJobs(t *testing.T) {
	_, ts := newConfiguredServer(t, server.Config{Pool: 1, QueueSize: 8, CacheSize: 0, Retention: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		_, got := post(t, ts.URL+"/v1/solve",
			submitBody(t, tinyProblemJSON(t, "tiny-retain-"+string(rune('a'+i))), server.SolveSpec{}))
		var st server.JobStatus
		if err := json.Unmarshal(got, &st); err != nil {
			t.Fatalf("solve %d: %v (%s)", i, err, got)
		}
		if st.State != server.StateDone {
			t.Fatalf("solve %d finished %q", i, st.State)
		}
		ids = append(ids, st.ID)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/"+ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job still resolves (status %d), want 404 after retention eviction", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if resp, _ := get(t, ts.URL+"/v1/jobs/"+id); resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s evicted too early (status %d)", id, resp.StatusCode)
		}
	}
}

// TestHealthAndAlgorithms smoke-tests the introspection endpoints.
func TestHealthAndAlgorithms(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	_, got := get(t, ts.URL+"/v1/algorithms")
	var out struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nmap-single", "nmap-split", "pmap", "gmap", "pbb"} {
		found := false
		for _, a := range out.Algorithms {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("algorithm %q missing from %v", want, out.Algorithms)
		}
	}
}

// TestBatchingSameTopology pins that the queue has no topology
// affinity: one worker solves queued jobs strictly in submission order,
// so jobs on one topology are never pulled ahead of an earlier job on
// another. The terminal-transition seqs in the store record the order.
func TestBatchingSameTopology(t *testing.T) {
	ms := store.NewMemStore()
	svc, ts := newConfiguredServer(t, server.Config{Pool: 1, QueueSize: 16, CacheSize: 0, Store: ms})
	// Hold the worker so every job below is queued before any runs.
	_, got := post(t, ts.URL+"/v1/jobs",
		submitBody(t, tinyProblemJSON(t, "fifo-hold"), server.SolveSpec{Algorithm: "test-block"}))
	hold := decodeStatus(t, got)
	<-blockUp
	small := tinyProblemJSON(t, "fifo")
	wide := meshProblemJSON(t, "fifo", 3, 2)
	var ids []string
	for i := 0; i < 4; i++ {
		problem := small
		if i%2 == 1 {
			problem = wide
		}
		// Distinct PBB budgets give distinct keys, so nothing coalesces.
		_, got := post(t, ts.URL+"/v1/jobs",
			submitBody(t, problem, server.SolveSpec{Algorithm: "pbb", MaxExpand: 100 + i}))
		ids = append(ids, decodeStatus(t, got).ID)
	}
	blockDone <- struct{}{}
	waitState(t, ts.URL, hold.ID, server.StateDone)
	for _, id := range ids {
		waitState(t, ts.URL, id, server.StateDone)
	}
	svc.Close() // flush the outbox
	snap, err := ms.Load()
	if err != nil {
		t.Fatal(err)
	}
	seq := make(map[string]uint64, len(snap.Jobs))
	for _, rec := range snap.Jobs {
		seq[rec.ID] = rec.Seq
	}
	for i := 1; i < len(ids); i++ {
		if seq[ids[i-1]] >= seq[ids[i]] {
			t.Fatalf("job %d (%s, seq %d) finished after job %d (%s, seq %d): queue order broken",
				i-1, ids[i-1], seq[ids[i-1]], i, ids[i], seq[ids[i]])
		}
	}
}

func decodeStatus(t *testing.T, body []byte) server.JobStatus {
	t.Helper()
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status: %v (%s)", err, body)
	}
	return st
}

// TestReadSubmitBodySizes: a body with a declared length, or chunked
// (length -1), reads back whole; a declared length past MaxBodyBytes
// answers the typed 413 before any of the body is read or a buffer is
// sized from the header.
func TestReadSubmitBodySizes(t *testing.T) {
	body := tinyProblemJSON(t, "read-sizes")
	for _, length := range []int64{int64(len(body)), -1} {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.ContentLength = length
		got, serr := server.ReadSubmitBody(httptest.NewRecorder(), req)
		if serr != nil || !bytes.Equal(got, body) {
			t.Fatalf("length %d: read %q, %+v; want the body", length, got, serr)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.ContentLength = server.MaxBodyBytes + 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, serr := server.ReadSubmitBody(httptest.NewRecorder(), req)
	runtime.ReadMemStats(&after)
	if serr == nil || serr.Status != http.StatusRequestEntityTooLarge || serr.Payload.Code != server.CodeBadRequest {
		t.Fatalf("declared length past the cap: read %d bytes, %+v; want a typed 413", len(got), serr)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10 {
		t.Fatalf("refusing a declared length past the cap allocated %d bytes", grown)
	}
}
