package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"repro/nocmap/server"
	"repro/nocmap/store"
)

// recordingFollower is a replication target that records every job op
// pushed to it, in arrival order, and acknowledges each push with the
// highest terminal seq it has received.
type recordingFollower struct {
	url string

	mu      sync.Mutex
	ops     []store.Op
	high    uint64
	regress bool // the next ack reports watermark 0 and forgets the rest
}

func newRecordingFollower(t *testing.T) *recordingFollower {
	t.Helper()
	f := &recordingFollower{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var batch server.RecordBatch
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			t.Error(err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		for _, op := range batch.Ops {
			if op.Kind != store.OpPutJob {
				continue
			}
			f.ops = append(f.ops, op)
			if store.Terminal(op.Rec.State) {
				f.high = max(f.high, op.Rec.Seq)
			}
		}
		if f.regress {
			// A follower restarted from an empty store: it reports
			// nothing held, so the primary re-sends what it lost.
			f.regress = false
			f.high = 0
		}
		resp := server.ReplicateResponse{Applied: len(batch.Ops), HighSeq: f.high}
		f.mu.Unlock()
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(ts.Close)
	f.url = ts.URL
	return f
}

// received returns the job ops pushed so far.
func (f *recordingFollower) received() []store.Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.ops)
}

// states lists the states of the job records ops put for id, in order.
func states(ops []store.Op, id string) []string {
	var out []string
	for _, op := range ops {
		if op.Kind == store.OpPutJob && op.Rec.ID == id {
			out = append(out, op.Rec.State)
		}
	}
	return out
}

// hasState reports whether ops put a record for id in state.
func hasState(ops []store.Op, id, state string) bool {
	return slices.Contains(states(ops, id), state)
}

// durableBody is a durability=replicated submission of a tiny problem.
func durableBody(t *testing.T, name, algo string) []byte {
	return submitBody(t, tinyProblemJSON(t, name),
		server.SolveSpec{Algorithm: algo, Durability: server.DurabilityReplicated})
}

// postAsync posts body in the background; the returned func waits for
// the answer and decodes it.
func postAsync(t *testing.T, url string, body []byte) func() (*http.Response, server.JobStatus) {
	type answer struct {
		resp *http.Response
		st   server.JobStatus
		err  error
	}
	ch := make(chan answer, 1)
	go func() {
		var a answer
		a.resp, a.err = http.Post(url, "application/json", bytes.NewReader(body))
		if a.err == nil {
			a.err = json.NewDecoder(a.resp.Body).Decode(&a.st)
			a.resp.Body.Close()
		}
		ch <- a
	}()
	return func() (*http.Response, server.JobStatus) {
		t.Helper()
		a := <-ch
		if a.err != nil {
			t.Fatal(a.err)
		}
		return a.resp, a.st
	}
}

// checkReplicatedAck asserts a durability=replicated answer says
// replicated, in the header and in the body.
func checkReplicatedAck(t *testing.T, resp *http.Response, st server.JobStatus) {
	t.Helper()
	if h := resp.Header.Get("X-Nocmap-Durability"); h != server.DurabilityReplicated || st.Durability != server.DurabilityReplicated {
		t.Fatalf("durability header %q, body %q; want %q", h, st.Durability, server.DurabilityReplicated)
	}
}

// TestSyncSolveShipsOnlyItsOutcome: a POST /v1/solve job pushes one
// terminal record and no live one, while its local store still gets
// the live record, and a durability=replicated solve still acks
// replicated. A job queued behind it fences the stream: its live
// record reaches the follower, and the held solve's does not.
func TestSyncSolveShipsOnlyItsOutcome(t *testing.T) {
	f := newRecordingFollower(t)
	local := &batchCountingStore{MemStore: store.NewMemStore()}
	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: local,
		ReplicaTargets: []string{f.url},
	})
	holdShipSync := registerHold("test-hold-ship-sync")
	t.Cleanup(holdShipSync.free) // before the server's cleanup, on failure too

	answer := postAsync(t, primary.URL+"/v1/solve", durableBody(t, "ship-sync", "test-hold-ship-sync"))
	<-holdShipSync.up
	fence := submitJob(t, primary.URL, submitBody(t, tinyProblemJSON(t, "ship-fence"), server.SolveSpec{}))
	waitFor(t, "the fence's live record", func() bool { return hasState(f.received(), fence.ID, server.StateQueued) })
	if got := f.received(); len(got) != 1 {
		t.Fatalf("follower got %d records before the fence's, want only the fence's: %+v", len(got), got)
	}

	holdShipSync.free()
	resp, st := answer()
	if st.State != server.StateDone {
		t.Fatalf("sync solve = %+v, want done", st)
	}
	checkReplicatedAck(t, resp, st)
	if got := states(f.received(), st.ID); !slices.Equal(got, []string{server.StateDone}) {
		t.Fatalf("follower got records %v for the sync solve, want only [done]", got)
	}
	if n := remoteStats(t, primary.URL).DurableAcks; n != 1 {
		t.Fatalf("durable_acks = %d, want 1", n)
	}
	var localStates []string
	for _, batch := range local.snapshotBatches() {
		localStates = append(localStates, states(batch, st.ID)...)
	}
	if !slices.Equal(localStates, []string{server.StateQueued, server.StateDone}) {
		t.Fatalf("local store got records %v for the sync solve, want [queued done]", localStates)
	}
}

// TestAsyncJobShipsLiveThenOutcome: a held POST /v1/jobs job pushes
// its live record, then its terminal one, and a durability=replicated
// submission acks replicated on the live record.
func TestAsyncJobShipsLiveThenOutcome(t *testing.T) {
	f := newRecordingFollower(t)
	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: store.NewMemStore(),
		ReplicaTargets: []string{f.url},
	})
	holdShipAsync := registerHold("test-hold-ship-async")
	t.Cleanup(holdShipAsync.free)

	resp, got := post(t, primary.URL+"/v1/jobs", durableBody(t, "ship-async", "test-hold-ship-async"))
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s (%v)", resp.StatusCode, got, err)
	}
	checkReplicatedAck(t, resp, st)
	if got := states(f.received(), st.ID); len(got) != 1 || store.Terminal(got[0]) {
		t.Fatalf("follower got records %v for the held job, want its one live record", got)
	}

	holdShipAsync.free()
	waitFor(t, "the terminal record", func() bool { return hasState(f.received(), st.ID, server.StateDone) })
	if got := states(f.received(), st.ID); !slices.Equal(got[1:], []string{server.StateDone}) {
		t.Fatalf("follower got records %v, want the live record then [done]", got)
	}
	if n := remoteStats(t, primary.URL).DurableAcks; n != 1 {
		t.Fatalf("durable_acks = %d, want 1", n)
	}
}

// TestReseedSkipsSyncLiveRecords: neither a watermark regression's
// reseed nor a new target's seed sends the live record of a held sync
// solve, and both send the live record of a held async job. Each
// reseed goes out live records first, so the last terminal record
// arriving means the live ones are all in.
func TestReseedSkipsSyncLiveRecords(t *testing.T) {
	f := newRecordingFollower(t)
	svc, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: store.NewMemStore(),
		ReplicaTargets: []string{f.url},
	})
	holdSeedSync := registerHold("test-hold-seed-sync")
	holdSeedAsync := registerHold("test-hold-seed-async")
	t.Cleanup(holdSeedSync.free)
	t.Cleanup(holdSeedAsync.free)

	// One finished job, so the follower's watermark can regress.
	_, got := post(t, primary.URL+"/v1/solve", submitBody(t, tinyProblemJSON(t, "seed-done"), server.SolveSpec{}))
	var done server.JobStatus
	if err := json.Unmarshal(got, &done); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the watermark", func() bool { return remoteStats(t, primary.URL).ReplicationLag == 0 })

	answer := postAsync(t, primary.URL+"/v1/solve", submitBody(t, tinyProblemJSON(t, "seed-sync"),
		server.SolveSpec{Algorithm: "test-hold-seed-sync"}))
	<-holdSeedSync.up
	async := submitJob(t, primary.URL, submitBody(t, tinyProblemJSON(t, "seed-async"),
		server.SolveSpec{Algorithm: "test-hold-seed-async"}))
	waitFor(t, "the async job's live record", func() bool { return hasState(f.received(), async.ID, server.StateQueued) })

	// The next push is acked with watermark 0: the primary reseeds.
	f.mu.Lock()
	f.regress = true
	f.mu.Unlock()
	before := len(f.received())
	fence := submitJob(t, primary.URL, submitBody(t, tinyProblemJSON(t, "seed-fence"), server.SolveSpec{}))
	waitFor(t, "the reseed", func() bool {
		ops := f.received()
		return len(ops) > before+1 && hasState(ops[before+1:], done.ID, server.StateDone)
	})
	reseed := f.received()[before:]
	if !hasState(reseed, async.ID, server.StateQueued) || !hasState(reseed, fence.ID, server.StateQueued) {
		t.Fatalf("the reseed %+v lacks the async jobs' live records", reseed)
	}

	f2 := newRecordingFollower(t)
	svc.SetReplicaTargets([]string{f.url, f2.url})
	waitFor(t, "the new target's seed", func() bool { return hasState(f2.received(), done.ID, server.StateDone) })
	seed := f2.received()
	if !hasState(seed, async.ID, server.StateQueued) || !hasState(seed, fence.ID, server.StateQueued) {
		t.Fatalf("the seed %+v lacks the async jobs' live records", seed)
	}

	holdSeedSync.free()
	holdSeedAsync.free()
	_, st := answer()
	for name, ops := range map[string][]store.Op{"reseed": reseed, "seed": seed} {
		if got := states(ops, st.ID); len(got) != 0 {
			t.Fatalf("the %s sent the held sync solve's records %v", name, got)
		}
	}
}
