package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/nocmap/server"
	"repro/nocmap/store"
)

// replicationPair boots a primary replicating into a follower, both
// in-process behind httptest.
func replicationPair(t *testing.T) (primary, follower *httptest.Server) {
	t.Helper()
	// Two follower workers: a promoted blocking job must not starve the
	// re-run of the promoted queued one.
	_, follower = newConfiguredServer(t, server.Config{
		Pool: 2, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: store.NewMemStore(),
	})
	_, primary = newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: store.NewMemStore(),
		ReplicaTargets: []string{follower.URL},
	})
	return primary, follower
}

// remoteStats polls GET /v1/stats.
func remoteStats(t *testing.T, base string) server.Stats {
	t.Helper()
	_, body := get(t, base+"/v1/stats")
	var st server.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("parsing stats %q: %v", body, err)
	}
	return st
}

// waitFor polls cond every 10ms for up to 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitReplicated waits until the primary has nothing pending and the
// follower holds at least n replicas.
func waitReplicated(t *testing.T, primary, follower string, n int) {
	t.Helper()
	waitFor(t, "replication to drain", func() bool {
		p := remoteStats(t, primary)
		f := remoteStats(t, follower)
		return p.ReplicationPending == 0 && p.Replicated > 0 && f.Replicas >= n
	})
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, url, body)
}

// TestReplicationConverges pins the tentpole's data plane: a solved
// job's terminal record lands in the follower's replica namespace and
// reads back byte-identical through GET /v1/replicas/{id}.
func TestReplicationConverges(t *testing.T) {
	primary, follower := replicationPair(t)
	body := submitBody(t, tinyProblemJSON(t, "replicate-one"), server.SolveSpec{})
	resp, got := post(t, primary.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, "p0-") {
		t.Fatalf("job ID %q lacks the primary's prefix", st.ID)
	}
	waitReplicated(t, primary.URL, follower.URL, 1)

	_, own := get(t, primary.URL+"/v1/jobs/"+st.ID)
	rresp, replica := get(t, follower.URL+"/v1/replicas/"+st.ID)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("replica status = %d (body %s)", rresp.StatusCode, replica)
	}
	if !bytes.Equal(own, replica) {
		t.Fatalf("replica status diverged:\nprimary:  %s\nfollower: %s", own, replica)
	}
	// The follower's own job namespace must not know the ID before a
	// promotion.
	if jresp, _ := get(t, follower.URL+"/v1/jobs/"+st.ID); jresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unpromoted replica leaked into /v1/jobs: status %d", jresp.StatusCode)
	}
}

// TestReplicationPendingCountsInFlight pins the Stats contract the
// drain waits above rely on: a push the follower has not answered yet
// still counts in ReplicationPending. Were it dropped from the count
// once taken off the queue, "pending == 0" could read true while the
// terminal record is still on the wire.
func TestReplicationPendingCountsInFlight(t *testing.T) {
	// The follower answers every push at once except the one carrying
	// the terminal record, which it holds until released: by then
	// nothing else is left to queue, so only the in-flight push can
	// keep the count above zero.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.ReplicateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, rec := range req.Records {
			if store.Terminal(rec.State) {
				entered <- struct{}{}
				<-release
			}
		}
		json.NewEncoder(w).Encode(server.ReplicateResponse{Applied: len(req.Records)})
	}))
	t.Cleanup(follower.Close)
	t.Cleanup(unblock)
	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", ReplicaTargets: []string{follower.URL},
	})
	resp, got := post(t, primary.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "in-flight"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the primary never pushed the terminal record")
	}
	if st := remoteStats(t, primary.URL); st.ReplicationPending != 1 {
		t.Fatalf("ReplicationPending = %d with only the terminal push in flight, want 1 (%+v)",
			st.ReplicationPending, st.ReplicaTargets)
	}
	unblock()
	waitFor(t, "replication to drain", func() bool {
		return remoteStats(t, primary.URL).ReplicationPending == 0
	})
}

// TestPromoteTerminalByteIdentical pins failover for completed work:
// after promotion the follower answers GET /v1/jobs/{id} with the
// byte-identical body the primary served, and promotion is idempotent.
func TestPromoteTerminalByteIdentical(t *testing.T) {
	primary, follower := replicationPair(t)
	body := submitBody(t, tinyProblemJSON(t, "promote-done"), server.SolveSpec{})
	_, got := post(t, primary.URL+"/v1/solve", body)
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	_, own := get(t, primary.URL+"/v1/jobs/"+st.ID)
	waitReplicated(t, primary.URL, follower.URL, 1)

	presp, pbody := postJSON(t, follower.URL+"/v1/promote", server.PromoteRequest{Origin: "p0-"})
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("promote status = %d (body %s)", presp.StatusCode, pbody)
	}
	var pr server.PromoteResponse
	if err := json.Unmarshal(pbody, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Promoted != 1 {
		t.Fatalf("promoted = %d, want 1", pr.Promoted)
	}
	jresp, adopted := get(t, follower.URL+"/v1/jobs/"+st.ID)
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("promoted job lookup = %d (body %s)", jresp.StatusCode, adopted)
	}
	if !bytes.Equal(own, adopted) {
		t.Fatalf("promoted status diverged:\nprimary:  %s\nfollower: %s", own, adopted)
	}
	if fs := remoteStats(t, follower.URL); fs.Promoted != 1 {
		t.Fatalf("follower Promoted = %d, want 1", fs.Promoted)
	}
	// Re-promotion must be a no-op: the ID already lives locally.
	_, pbody = postJSON(t, follower.URL+"/v1/promote", server.PromoteRequest{Origin: "p0-"})
	if err := json.Unmarshal(pbody, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Promoted != 0 {
		t.Fatalf("second promote adopted %d jobs, want 0", pr.Promoted)
	}
}

// TestPromoteLiveReruns pins failover for queued work: a job the
// primary never got to run re-runs on the follower under its original
// ID.
func TestPromoteLiveReruns(t *testing.T) {
	primary, follower := replicationPair(t)
	// Park the primary's single worker on a blocking solve so the next
	// submission replicates in its queued state.
	blocker := submitBody(t, tinyProblemJSON(t, "promote-blocker"),
		server.SolveSpec{Algorithm: "test-block"})
	if resp, got := post(t, primary.URL+"/v1/jobs", blocker); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit = %d (body %s)", resp.StatusCode, got)
	}
	<-blockUp
	defer func() { blockDone <- struct{}{} }()

	queued := submitBody(t, tinyProblemJSON(t, "promote-queued"), server.SolveSpec{})
	resp, got := post(t, primary.URL+"/v1/jobs", queued)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, primary.URL, follower.URL, 2)

	if _, pbody := postJSON(t, follower.URL+"/v1/promote", server.PromoteRequest{Origin: "p0-"}); true {
		var pr server.PromoteResponse
		if err := json.Unmarshal(pbody, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Promoted != 2 {
			t.Fatalf("promoted = %d, want 2 (blocker + queued)", pr.Promoted)
		}
	}
	// The promoted blocker re-runs on the follower too: drain its start
	// token and release it, or its leftovers would poison later tests
	// sharing the block channels.
	<-blockUp
	defer func() { blockDone <- struct{}{} }()
	waitFor(t, "the queued job to re-run on the follower", func() bool {
		resp, body := get(t, follower.URL+"/v1/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var now server.JobStatus
		return json.Unmarshal(body, &now) == nil && now.State == server.StateDone
	})
}

// TestReconcileTerminalBeatsLive pins anti-entropy adoption: a terminal
// incoming record installs on an unknown ID, never overwrites a
// terminal local job, and a live incoming record re-runs locally.
func TestReconcileTerminalBeatsLive(t *testing.T) {
	_, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: store.NewMemStore(),
	})
	result := json.RawMessage(`{"feasible":true}`)
	rec := store.JobRecord{
		ID: "px-job-00000001", Key: "k1", State: server.StateDone, Result: result, Seq: 3,
	}
	// The cache entry uses a distinct key: installing the terminal record
	// already warms k1, and an already-present entry must not re-count.
	resp, body := postJSON(t, ts.URL+"/v1/reconcile", server.ReconcileRequest{
		Records: []store.JobRecord{rec},
		Cache:   []store.CacheEntry{{Key: "k1", Result: result}, {Key: "k2", Result: result}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reconcile status = %d (body %s)", resp.StatusCode, body)
	}
	var rr server.ReconcileResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Applied != 2 {
		t.Fatalf("applied = %d, want 2 (record + cache entry)", rr.Applied)
	}
	jresp, jbody := get(t, ts.URL+"/v1/jobs/px-job-00000001")
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("adopted job lookup = %d (body %s)", jresp.StatusCode, jbody)
	}
	var st server.JobStatus
	if err := json.Unmarshal(jbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone || !bytes.Equal(st.Result, result) {
		t.Fatalf("adopted job = %+v, want done with the replicated result", st)
	}

	// Redelivery: the terminal local job must not re-adopt.
	_, body = postJSON(t, ts.URL+"/v1/reconcile", server.ReconcileRequest{Records: []store.JobRecord{rec}})
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Applied != 0 {
		t.Fatalf("redelivered reconcile applied %d, want 0", rr.Applied)
	}

	// A live record for an unknown ID re-runs here under its original ID.
	liveCanon := tinyProblemJSON(t, "reconcile-live")
	live := store.JobRecord{
		ID: "px-job-00000002", State: server.StateQueued, Problem: liveCanon,
	}
	_, body = postJSON(t, ts.URL+"/v1/reconcile", server.ReconcileRequest{Records: []store.JobRecord{live}})
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Applied != 1 {
		t.Fatalf("live reconcile applied %d, want 1", rr.Applied)
	}
	waitFor(t, "the migrated live job to solve", func() bool {
		resp, body := get(t, ts.URL+"/v1/jobs/px-job-00000002")
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var now server.JobStatus
		return json.Unmarshal(body, &now) == nil && now.State == server.StateDone
	})
	if st := remoteStats(t, ts.URL); st.Reconciled != 2 {
		t.Fatalf("Reconciled = %d, want 2", st.Reconciled)
	}
}

// TestReplicationTargetEndpoint pins the control plane: a late-bound
// target reseeds the full state, Info reflects it, and a non-URL is
// rejected.
func TestReplicationTargetEndpoint(t *testing.T) {
	_, follower := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: store.NewMemStore(),
	})
	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: store.NewMemStore(),
	})
	// Solve before any target exists: nothing replicates yet.
	body := submitBody(t, tinyProblemJSON(t, "late-target"), server.SolveSpec{})
	_, got := post(t, primary.URL+"/v1/solve", body)
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if fs := remoteStats(t, follower.URL); fs.Replicas != 0 {
		t.Fatalf("follower has %d replicas before a target was set", fs.Replicas)
	}

	if resp, _ := postPut(t, primary.URL+"/v1/replication/target",
		server.ReplicationTarget{URLs: []string{"not-a-url"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad target accepted: status %d", resp.StatusCode)
	}
	resp, tbody := postPut(t, primary.URL+"/v1/replication/target",
		server.ReplicationTarget{URLs: []string{follower.URL}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("set target status = %d (body %s)", resp.StatusCode, tbody)
	}
	// The reseed converges the follower to the pre-target history.
	waitReplicated(t, primary.URL, follower.URL, 1)
	if rresp, _ := get(t, follower.URL+"/v1/replicas/"+st.ID); rresp.StatusCode != http.StatusOK {
		t.Fatalf("reseeded replica missing: status %d", rresp.StatusCode)
	}
	_, ibody := get(t, primary.URL+"/v1/info")
	var info server.Info
	if err := json.Unmarshal(ibody, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.ReplicaTargets) != 1 || info.ReplicaTargets[0] != follower.URL {
		t.Fatalf("Info.ReplicaTargets = %q, want [%q]", info.ReplicaTargets, follower.URL)
	}
}

// TestReplicationTargetRejectsUnknownFields pins the strict decode of
// PUT /v1/replication/target: a body with a field the set does not
// have — the removed single-target {"url": ...} form — or with data
// after the JSON value answers 400 bad_request and leaves the target
// set as it was, instead of reading as the empty set (turning
// replication off) or as its first value.
func TestReplicationTargetRejectsUnknownFields(t *testing.T) {
	primary, follower := replicationPair(t)
	for _, body := range []string{
		`{"url":"http://127.0.0.1:1"}`,
		`{"urls":["http://127.0.0.1:1"]} junk`,
		`{"urls":["http://127.0.0.1:1"]}{"urls":[]}`,
	} {
		resp, got := putRaw(t, primary.URL+"/v1/replication/target", []byte(body))
		if resp.StatusCode != http.StatusBadRequest || errCode(t, got) != server.CodeBadRequest {
			t.Fatalf("body %s: status %d (body %s), want 400 bad_request", body, resp.StatusCode, got)
		}
		_, ibody := get(t, primary.URL+"/v1/info")
		var info server.Info
		if err := json.Unmarshal(ibody, &info); err != nil {
			t.Fatal(err)
		}
		if len(info.ReplicaTargets) != 1 || info.ReplicaTargets[0] != follower.URL {
			t.Fatalf("targets after body %s = %q, want [%q]", body, info.ReplicaTargets, follower.URL)
		}
	}
}

// TestReplicationEvictionPropagates pins the resurrection guard: when
// the primary's retention evicts a job, the follower's replica goes
// too.
func TestReplicationEvictionPropagates(t *testing.T) {
	_, follower := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: store.NewMemStore(),
	})
	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: store.NewMemStore(),
		Retention: 1, ReplicaTargets: []string{follower.URL},
	})
	first := submitBody(t, tinyProblemJSON(t, "evict-a"), server.SolveSpec{})
	_, got := post(t, primary.URL+"/v1/solve", first)
	var stA server.JobStatus
	if err := json.Unmarshal(got, &stA); err != nil {
		t.Fatal(err)
	}
	second := submitBody(t, tinyProblemJSON(t, "evict-b"), server.SolveSpec{})
	_, got = post(t, primary.URL+"/v1/solve", second)
	var stB server.JobStatus
	if err := json.Unmarshal(got, &stB); err != nil {
		t.Fatal(err)
	}
	// Retention 1 evicted job A the moment B finished; the delete rides
	// the same replication stream.
	waitFor(t, "the evicted replica to disappear", func() bool {
		respA, _ := get(t, follower.URL+"/v1/replicas/"+stA.ID)
		respB, _ := get(t, follower.URL+"/v1/replicas/"+stB.ID)
		return respA.StatusCode == http.StatusNotFound && respB.StatusCode == http.StatusOK
	})
}

// postPut sends a PUT with a JSON body.
func postPut(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return putRaw(t, url, body)
}

// putRaw sends a PUT with body as it is.
func putRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

// TestReplayRetentionDropsPromotedReplica pins retention across a
// restart for promoted jobs: when replay evicts a promoted job beyond
// Retention, its replica record goes too, so a later promotion cannot
// reinstall the job retention already let go. Promotion installs the
// origin's records in (Seq, ID) order, so the same job — the one the
// origin finished first — is evicted on every run.
func TestReplayRetentionDropsPromotedReplica(t *testing.T) {
	recs := []store.JobRecord{
		{ID: "p0-job-00000001", Key: "k1", State: server.StateDone, Result: json.RawMessage(`{"n":1}`), Seq: 1},
		{ID: "p0-job-00000002", Key: "k2", State: server.StateDone, Result: json.RawMessage(`{"n":2}`), Seq: 2},
	}
	evicted, kept := recs[0].ID, recs[1].ID
	for iter := 0; iter < 20; iter++ {
		ms := store.NewMemStore()
		svc, follower := newConfiguredServer(t, server.Config{
			Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: ms,
		})
		if resp, body := postJSON(t, follower.URL+"/v1/replicate",
			server.ReplicateRequest{Origin: "p0-", Records: recs}); resp.StatusCode != http.StatusOK {
			t.Fatalf("replicate: status %d (body %s)", resp.StatusCode, body)
		}
		promote := func(base string) server.PromoteResponse {
			t.Helper()
			resp, body := postJSON(t, base+"/v1/promote", server.PromoteRequest{Origin: "p0-"})
			var pr server.PromoteResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pr) != nil {
				t.Fatalf("promote: status %d (body %s)", resp.StatusCode, body)
			}
			return pr
		}
		if pr := promote(follower.URL); pr.Promoted != 2 {
			t.Fatalf("first promotion promoted %d, want 2", pr.Promoted)
		}
		follower.Close()
		svc.Close()

		// Restart on the same store with room for one finished job:
		// replay evicts the promoted job that finished first here.
		_, restarted := newConfiguredServer(t, server.Config{
			Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: ms, Retention: 1,
		})
		status := func(id string) int {
			resp, _ := get(t, restarted.URL+"/v1/jobs/"+id)
			return resp.StatusCode
		}
		if status(evicted) != http.StatusNotFound || status(kept) != http.StatusOK {
			t.Fatalf("iteration %d: after the restart %s answers %d and %s answers %d, want 404 and 200",
				iter, evicted, status(evicted), kept, status(kept))
		}
		if pr := promote(restarted.URL); pr.Promoted != 0 {
			t.Fatalf("second promotion promoted %d, want 0", pr.Promoted)
		}
		if status(evicted) != http.StatusNotFound {
			t.Fatalf("evicted job %s answers %d after the second promotion, want 404", evicted, status(evicted))
		}
		restarted.Close()
	}
}

// TestRecordsLeaveInSeqOrder: GET /v1/records lists a backend's jobs in
// (Seq, ID) order, never map order, so a backend that adopts them
// through /v1/reconcile mints its terminal seqs — and retention evicts
// — the same way every run. The two records' IDs sort against their
// seqs, so an ID-only order would evict the other job.
func TestRecordsLeaveInSeqOrder(t *testing.T) {
	recs := []store.JobRecord{
		{ID: "p0-job-00000001", Key: "k1", State: server.StateDone, Result: json.RawMessage(`{"n":1}`), Seq: 2},
		{ID: "p0-job-00000002", Key: "k2", State: server.StateDone, Result: json.RawMessage(`{"n":2}`), Seq: 1},
	}
	evicted, kept := recs[1].ID, recs[0].ID
	for iter := 0; iter < 20; iter++ {
		ms := store.NewMemStore()
		if err := ms.ApplyOps([]store.Op{
			{Kind: store.OpPutJob, Rec: &recs[0]}, {Kind: store.OpPutJob, Rec: &recs[1]},
		}); err != nil {
			t.Fatal(err)
		}
		_, source := newConfiguredServer(t, server.Config{
			Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: ms,
		})
		resp, body := get(t, source.URL+"/v1/records")
		var rr server.RecordsResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &rr) != nil {
			t.Fatalf("records: status %d (body %s)", resp.StatusCode, body)
		}
		_, target := newConfiguredServer(t, server.Config{
			Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Retention: 1,
		})
		if resp, body := postJSON(t, target.URL+"/v1/reconcile",
			server.ReconcileRequest{Records: rr.Records}); resp.StatusCode != http.StatusOK {
			t.Fatalf("reconcile: status %d (body %s)", resp.StatusCode, body)
		}
		status := func(id string) int {
			resp, _ := get(t, target.URL+"/v1/jobs/"+id)
			return resp.StatusCode
		}
		if status(evicted) != http.StatusNotFound || status(kept) != http.StatusOK {
			t.Fatalf("iteration %d: after the reconcile %s answers %d and %s answers %d, want 404 and 200",
				iter, evicted, status(evicted), kept, status(kept))
		}
		source.Close()
		target.Close()
	}
}
