package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/nocmap/server"
	"repro/nocmap/store"
)

// counters is the slice of Stats that terminal transitions move.
type counters struct {
	Submitted, Solved, Failed, Cancelled, CacheHits, Coalesced uint64
	Promoted, Reconciled, Restored, Recovered                  uint64
}

func countersOf(st server.Stats) counters {
	return counters{
		Submitted: st.Submitted, Solved: st.Solved, Failed: st.Failed,
		Cancelled: st.Cancelled, CacheHits: st.CacheHits, Coalesced: st.Coalesced,
		Promoted: st.Promoted, Reconciled: st.Reconciled,
		Restored: st.Restored, Recovered: st.Recovered,
	}
}

// submitJob posts an async submission and decodes its status.
func submitJob(t *testing.T, base string, body []byte) server.JobStatus {
	t.Helper()
	resp, got := post(t, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// deleteJob cancels a job over DELETE /v1/jobs/{id}.
func deleteJob(t *testing.T, base, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// parkWorker occupies the single worker with a held test-block solve
// and returns its status; blockDone releases it.
func parkWorker(t *testing.T, base, name string) server.JobStatus {
	t.Helper()
	st := submitJob(t, base, submitBody(t, tinyProblemJSON(t, name), server.SolveSpec{Algorithm: "test-block"}))
	<-blockUp
	return st
}

// TestTerminalPathCounters pins the Stats counter vector each terminal
// path leaves behind: outcomes produced here move solved, failed or
// cancelled; cache answers move cache_hits; adopted records move
// promoted or reconciled and none of the outcome counters; boot moves
// restored and recovered.
func TestTerminalPathCounters(t *testing.T) {
	plain := func(t *testing.T, name string) []byte {
		return submitBody(t, tinyProblemJSON(t, name), server.SolveSpec{})
	}
	held := func(t *testing.T, name string) []byte {
		return submitBody(t, tinyProblemJSON(t, name), server.SolveSpec{Algorithm: "test-block"})
	}
	failing := func(t *testing.T, name string) []byte {
		return submitBody(t, tinyProblemJSON(t, name), server.SolveSpec{Algorithm: "test-html-error"})
	}
	result := json.RawMessage(`{"feasible":true}`)

	for _, tc := range []struct {
		name string
		seed func(t *testing.T) []store.JobRecord // records in the store at boot
		run  func(t *testing.T, svc *server.Server, base string)
		want counters
	}{
		{name: "solve done", run: func(t *testing.T, _ *server.Server, base string) {
			waitState(t, base, submitJob(t, base, plain(t, "ctr-done")).ID, server.StateDone)
		}, want: counters{Submitted: 1, Solved: 1}},

		{name: "solve failed", run: func(t *testing.T, _ *server.Server, base string) {
			waitState(t, base, submitJob(t, base, failing(t, "ctr-failed")).ID, server.StateFailed)
		}, want: counters{Submitted: 1, Failed: 1}},

		{name: "cancel queued", run: func(t *testing.T, _ *server.Server, base string) {
			blocker := parkWorker(t, base, "ctr-cq-blocker")
			q := submitJob(t, base, plain(t, "ctr-cq"))
			deleteJob(t, base, q.ID)
			waitState(t, base, q.ID, server.StateCancelled)
			blockDone <- struct{}{}
			waitState(t, base, blocker.ID, server.StateDone)
		}, want: counters{Submitted: 2, Solved: 1, Cancelled: 1}},

		{name: "cancel running", run: func(t *testing.T, _ *server.Server, base string) {
			lead := parkWorker(t, base, "ctr-cr")
			deleteJob(t, base, lead.ID)
			if st := waitState(t, base, lead.ID, server.StateCancelled); len(st.Result) == 0 {
				t.Error("running cancel finished without its partial result")
			}
		}, want: counters{Submitted: 1, Cancelled: 1}},

		{name: "follower of a solve", run: func(t *testing.T, _ *server.Server, base string) {
			lead := parkWorker(t, base, "ctr-fd")
			f := submitJob(t, base, held(t, "ctr-fd"))
			blockDone <- struct{}{}
			waitState(t, base, lead.ID, server.StateDone)
			waitState(t, base, f.ID, server.StateDone)
		}, want: counters{Submitted: 2, Solved: 2, Coalesced: 1}},

		{name: "follower of a failure", run: func(t *testing.T, _ *server.Server, base string) {
			blocker := parkWorker(t, base, "ctr-ff-blocker")
			lead := submitJob(t, base, failing(t, "ctr-ff"))
			f := submitJob(t, base, failing(t, "ctr-ff"))
			blockDone <- struct{}{}
			waitState(t, base, blocker.ID, server.StateDone)
			waitState(t, base, lead.ID, server.StateFailed)
			waitState(t, base, f.ID, server.StateFailed)
		}, want: counters{Submitted: 3, Solved: 1, Failed: 2, Coalesced: 1}},

		{name: "follower of a queued cancel", run: func(t *testing.T, _ *server.Server, base string) {
			blocker := parkWorker(t, base, "ctr-fcq-blocker")
			lead := submitJob(t, base, plain(t, "ctr-fcq"))
			f := submitJob(t, base, plain(t, "ctr-fcq"))
			deleteJob(t, base, lead.ID)
			waitState(t, base, f.ID, server.StateCancelled)
			blockDone <- struct{}{}
			waitState(t, base, blocker.ID, server.StateDone)
		}, want: counters{Submitted: 3, Solved: 1, Cancelled: 2, Coalesced: 1}},

		{name: "follower of a running cancel", run: func(t *testing.T, _ *server.Server, base string) {
			lead := parkWorker(t, base, "ctr-fcr")
			f := submitJob(t, base, held(t, "ctr-fcr"))
			deleteJob(t, base, lead.ID)
			waitState(t, base, f.ID, server.StateCancelled)
		}, want: counters{Submitted: 2, Cancelled: 2, Coalesced: 1}},

		{name: "cancelled follower", run: func(t *testing.T, _ *server.Server, base string) {
			lead := parkWorker(t, base, "ctr-cf")
			f := submitJob(t, base, held(t, "ctr-cf"))
			deleteJob(t, base, f.ID)
			waitState(t, base, f.ID, server.StateCancelled)
			blockDone <- struct{}{}
			waitState(t, base, lead.ID, server.StateDone)
		}, want: counters{Submitted: 2, Solved: 1, Cancelled: 1, Coalesced: 1}},

		{name: "cache hit, parse path", run: func(t *testing.T, _ *server.Server, base string) {
			body := plain(t, "ctr-hit")
			waitState(t, base, submitJob(t, base, body).ID, server.StateDone)
			if !submitJob(t, base, body).CacheHit {
				t.Error("resubmission was not a cache hit")
			}
		}, want: counters{Submitted: 2, Solved: 1, CacheHits: 1}},

		{name: "cache hit, memo", run: func(t *testing.T, _ *server.Server, base string) {
			body := plain(t, "ctr-memo")
			waitState(t, base, submitJob(t, base, body).ID, server.StateDone)
			for range 2 { // the parse path's hit, then the memo's
				if !submitJob(t, base, body).CacheHit {
					t.Error("resubmission was not a cache hit")
				}
			}
		}, want: counters{Submitted: 3, Solved: 1, CacheHits: 2}},

		{name: "shutdown of a queued job", run: func(t *testing.T, svc *server.Server, base string) {
			parkWorker(t, base, "ctr-shut-blocker")
			submitJob(t, base, plain(t, "ctr-shut"))
			svc.Close()
		}, want: counters{Submitted: 2, Cancelled: 2}},

		{name: "promote terminal replica", run: func(t *testing.T, _ *server.Server, base string) {
			rec := store.JobRecord{ID: "p0-job-00000001", Key: "k-promote", State: server.StateDone, Result: result, Seq: 1}
			postOK(t, base+"/v1/replicate", server.RecordBatch{Origin: "p0-", Ops: jobOps(rec)})
			postOK(t, base+"/v1/promote", server.PromoteRequest{Origin: "p0-"})
			waitState(t, base, rec.ID, server.StateDone)
		}, want: counters{Promoted: 1}},

		{name: "promote live replica", run: func(t *testing.T, _ *server.Server, base string) {
			rec := store.JobRecord{ID: "p0-job-00000001", State: server.StateQueued, Problem: tinyProblemJSON(t, "ctr-promote-live")}
			postOK(t, base+"/v1/replicate", server.RecordBatch{Origin: "p0-", Ops: jobOps(rec)})
			postOK(t, base+"/v1/promote", server.PromoteRequest{Origin: "p0-"})
			waitState(t, base, rec.ID, server.StateDone)
		}, want: counters{Promoted: 1, Solved: 1}},

		{name: "reconcile over a live local job", run: func(t *testing.T, _ *server.Server, base string) {
			blocker := parkWorker(t, base, "ctr-rl-blocker")
			q := submitJob(t, base, plain(t, "ctr-rl"))
			rec := store.JobRecord{ID: q.ID, Key: q.Key, State: server.StateDone, Result: result, Seq: 9}
			postOK(t, base+"/v1/reconcile", server.RecordBatch{Ops: jobOps(rec)})
			waitState(t, base, q.ID, server.StateDone)
			blockDone <- struct{}{}
			waitState(t, base, blocker.ID, server.StateDone)
		}, want: counters{Submitted: 2, Solved: 1, Reconciled: 1}},

		{name: "reconcile over a coalesced follower", run: func(t *testing.T, _ *server.Server, base string) {
			lead := parkWorker(t, base, "ctr-rf")
			f := submitJob(t, base, held(t, "ctr-rf"))
			rec := store.JobRecord{ID: f.ID, Key: f.Key, State: server.StateDone, Result: result, Seq: 9}
			postOK(t, base+"/v1/reconcile", server.RecordBatch{Ops: jobOps(rec)})
			waitState(t, base, f.ID, server.StateDone)
			blockDone <- struct{}{}
			waitState(t, base, lead.ID, server.StateDone)
		}, want: counters{Submitted: 2, Solved: 1, Coalesced: 1, Reconciled: 1}},

		{name: "replay", seed: func(t *testing.T) []store.JobRecord {
			return []store.JobRecord{
				{ID: "p1-job-00000001", Key: "k-replay", State: server.StateDone, Result: result, Seq: 1},
				{ID: "p1-job-00000002", State: server.StateQueued, Problem: tinyProblemJSON(t, "ctr-replay")},
				{ID: "p1-job-00000003", State: server.StateQueued, Problem: tinyProblemJSON(t, "ctr-replay-bad"),
					Spec: json.RawMessage(`{"algorithm":"no-such-algorithm"}`)},
			}
		}, run: func(t *testing.T, _ *server.Server, base string) {
			waitState(t, base, "p1-job-00000002", server.StateDone)
			waitState(t, base, "p1-job-00000003", server.StateFailed)
		}, want: counters{Restored: 1, Recovered: 2, Solved: 1, Failed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			js := store.NewMemStore()
			if tc.seed != nil {
				seedJobs(t, js, tc.seed(t)...)
			}
			svc, ts := newConfiguredServer(t, server.Config{
				Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: js,
			})
			tc.run(t, svc, ts.URL)
			if got := countersOf(svc.Stats()); got != tc.want {
				t.Fatalf("counters = %+v\nwant       %+v", got, tc.want)
			}
		})
	}
}

// postOK posts v as JSON and fails the test on any status but 200.
func postOK(t *testing.T, url string, v any) {
	t.Helper()
	if resp, body := postJSON(t, url, v); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d (body %s)", url, resp.StatusCode, body)
	}
}

// TestAdoptedFollowerLeavesLeader: a coalesced follower that a
// reconcile finishes with an adopted outcome detaches from its leader,
// so the leader's synchronous caller walking away cancels a solve that
// nobody shares any more.
func TestAdoptedFollowerLeavesLeader(t *testing.T) {
	_, ts := newTestServer(t)
	body := submitBody(t, tinyProblemJSON(t, "tiny-adopted-follower"), server.SolveSpec{Algorithm: "test-block"})

	ctx, cancelLead := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	leadDone := make(chan struct{})
	go func() {
		defer close(leadDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-blockUp // the leader's solve is running
	const leadID = "job-00000001"

	f := submitJob(t, ts.URL, body)
	if !f.Coalesced {
		t.Fatalf("second submission not coalesced: %+v", f)
	}
	rec := store.JobRecord{ID: f.ID, Key: f.Key, State: server.StateDone,
		Result: json.RawMessage(`{"feasible":true}`), Seq: 3}
	postOK(t, ts.URL+"/v1/reconcile", server.RecordBatch{Ops: jobOps(rec)})
	waitState(t, ts.URL, f.ID, server.StateDone)

	cancelLead() // the leader's caller walks away; nobody shares its solve
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, got := get(t, ts.URL+"/v1/jobs/"+leadID)
		var st server.JobStatus
		if err := json.Unmarshal(got, &st); err != nil {
			t.Fatalf("decoding %s: %v", got, err)
		}
		if st.State == server.StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			blockDone <- struct{}{} // release the solve so the test server can close
			<-leadDone
			t.Fatalf("leader %s still %q after its caller left: the adopted follower still holds it", leadID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-leadDone
}
