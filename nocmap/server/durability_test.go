package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/nocmap/server"
	"repro/nocmap/store"
)

// TestDurableSolveSyncAcksReplicated pins the strongest durability
// class end to end: a durability=replicated sync solve answers only
// after a follower acknowledged the job's terminal record, reports
// "replicated" in both the status body and the X-Nocmap-Durability
// header, and counts a durable ack.
func TestDurableSolveSyncAcksReplicated(t *testing.T) {
	primary, _ := replicationPair(t)
	body := submitBody(t, tinyProblemJSON(t, "durable-sync"),
		server.SolveSpec{Durability: server.DurabilityReplicated})
	resp, got := post(t, primary.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability != server.DurabilityReplicated {
		t.Fatalf("status durability = %q, want %q", st.Durability, server.DurabilityReplicated)
	}
	if h := resp.Header.Get("X-Nocmap-Durability"); h != server.DurabilityReplicated {
		t.Fatalf("X-Nocmap-Durability = %q, want %q", h, server.DurabilityReplicated)
	}
	if stats := remoteStats(t, primary.URL); stats.DurableAcks < 1 {
		t.Fatalf("DurableAcks = %d, want >= 1", stats.DurableAcks)
	}
}

// TestDurableSubmitAckReplicated pins the async submit flavor: the 202
// is held until the job's submit record is acked by a follower, and the
// response says so.
func TestDurableSubmitAckReplicated(t *testing.T) {
	primary, _ := replicationPair(t)
	body := submitBody(t, tinyProblemJSON(t, "durable-async"),
		server.SolveSpec{Durability: server.DurabilityReplicated})
	resp, got := post(t, primary.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability != server.DurabilityReplicated {
		t.Fatalf("status durability = %q, want %q", st.Durability, server.DurabilityReplicated)
	}
	// A later GET must not grow a durability field: it describes the
	// submission's ack, not the job, and GETs replay byte-identical.
	_, again := get(t, primary.URL+"/v1/jobs/"+st.ID)
	var later server.JobStatus
	if err := json.Unmarshal(again, &later); err != nil {
		t.Fatal(err)
	}
	if later.Durability != "" {
		t.Fatalf("GET status durability = %q, want empty", later.Durability)
	}
}

// TestDurableAckDegradesWithoutFollower pins the no-target path: a
// standalone server cannot replicate, so a durability=replicated
// submission is accepted immediately with the honest "async-degraded"
// answer instead of burning the full ack wait.
func TestDurableAckDegradesWithoutFollower(t *testing.T) {
	_, ts := newTestServer(t)
	start := time.Now()
	body := submitBody(t, tinyProblemJSON(t, "durable-standalone"),
		server.SolveSpec{Durability: server.DurabilityReplicated})
	resp, got := post(t, ts.URL+"/v1/jobs", body)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("targetless durable submit took %v, want an immediate degrade", elapsed)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability != server.DurabilityDegraded {
		t.Fatalf("status durability = %q, want %q", st.Durability, server.DurabilityDegraded)
	}
	if h := resp.Header.Get("X-Nocmap-Durability"); h != server.DurabilityDegraded {
		t.Fatalf("X-Nocmap-Durability = %q, want %q", h, server.DurabilityDegraded)
	}
	if stats := remoteStats(t, ts.URL); stats.DurableAcksDegraded < 1 {
		t.Fatalf("DurableAcksDegraded = %d, want >= 1", stats.DurableAcksDegraded)
	}
}

// TestDurableAckDegradesOnTimeout pins the bounded wait: with a target
// configured but unreachable, the ack degrades after DurableAckWait
// instead of hanging the submission.
func TestDurableAckDegradesOnTimeout(t *testing.T) {
	_, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-",
		ReplicaTargets: []string{"http://127.0.0.1:9"}, // discard port: refuses
		DurableAckWait: 50 * time.Millisecond,
	})
	start := time.Now()
	body := submitBody(t, tinyProblemJSON(t, "durable-timeout"),
		server.SolveSpec{Durability: server.DurabilityReplicated})
	resp, got := post(t, ts.URL+"/v1/jobs", body)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("durable submit took %v, want the 50ms bounded wait", elapsed)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability != server.DurabilityDegraded {
		t.Fatalf("status durability = %q, want %q", st.Durability, server.DurabilityDegraded)
	}
}

// TestDurabilityNeverEntersJobKey pins the cache-key exclusion: the
// durability class describes the ack contract, not the computation, so
// an async and a replicated submission of the same problem coalesce and
// share cached results.
func TestDurabilityNeverEntersJobKey(t *testing.T) {
	canon := []byte(`{"name":"k"}`)
	plain := server.JobKey(canon, server.SolveSpec{})
	durable := server.JobKey(canon, server.SolveSpec{Durability: server.DurabilityReplicated})
	if plain != durable {
		t.Fatalf("durability changed the job key: %s vs %s", plain, durable)
	}
	// An unknown class is rejected at the wire, not silently defaulted.
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/jobs",
		submitBody(t, tinyProblemJSON(t, "bad-durability"), server.SolveSpec{Durability: "bogus"}))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bogus durability: status = %d (body %s), want 422", resp.StatusCode, body)
	}
}

// TestReplicationStallSurfacesOnHealthz pins the stall satellite: a
// stream stuck past replicateStallAfter consecutive failed pushes flips
// /healthz to degraded (still HTTP 200 — the fleet prober must not read
// a stalled follower link as a death) with a replication_stalled
// detail, counts the episode in Stats.ReplicationStalls, and clears
// when the target set changes.
func TestReplicationStallSurfacesOnHealthz(t *testing.T) {
	_, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-",
		ReplicaTargets: []string{"http://127.0.0.1:9"},
	})
	// Replication streams only push when records are queued: give it one.
	resp, got := post(t, ts.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "stall-fodder"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	health := func() (status, detail string) {
		hresp, body := get(t, ts.URL+"/healthz")
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz status = %d while stalled, must stay 200", hresp.StatusCode)
		}
		var out map[string]string
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out["status"], out["detail"]
	}
	waitFor(t, "the stalled stream to degrade /healthz", func() bool {
		status, detail := health()
		return status == "degraded" && detail == "replication_stalled"
	})
	stats := remoteStats(t, ts.URL)
	if stats.ReplicationStalls < 1 {
		t.Fatalf("ReplicationStalls = %d, want >= 1", stats.ReplicationStalls)
	}
	if !stats.ReplicationStalled {
		t.Fatal("ReplicationStalled = false while /healthz reports the stall")
	}
	if len(stats.ReplicaTargets) != 1 || !stats.ReplicaTargets[0].Stalled {
		t.Fatalf("per-target stats missing the stall: %+v", stats.ReplicaTargets)
	}
	// Retargeting away from the dead follower clears the stall.
	presp, body := postPut(t, ts.URL+"/v1/replication/target", server.ReplicationTarget{})
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("clearing targets: status %d (body %s)", presp.StatusCode, body)
	}
	waitFor(t, "/healthz to recover after the retarget", func() bool {
		status, _ := health()
		return status == "ok"
	})
}

// TestWatermarkRegressionTriggersResend pins the primary half of the
// watermark protocol with a scripted follower: when a replicate
// response reports a watermark below what was acked before — the
// signature of a follower restarted from a younger store — the primary
// re-sends every record above the reported seq, and the stream's lag
// converges back to zero.
func TestWatermarkRegressionTriggersResend(t *testing.T) {
	var (
		mu      sync.Mutex
		seen    = map[string]int{}
		high    uint64
		regress bool
	)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replicate" {
			http.NotFound(w, r)
			return
		}
		var req server.RecordBatch
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		for _, op := range req.Ops {
			rec := op.Rec
			if rec == nil {
				continue // a deletion
			}
			seen[rec.ID]++
			if store.Terminal(rec.State) && rec.Seq > high {
				high = rec.Seq
			}
		}
		resp := server.ReplicateResponse{Applied: len(req.Ops), HighSeq: high}
		if regress {
			// Simulate a restart from an empty store: everything acked so
			// far is gone, and this response is the first the reborn
			// follower sends.
			regress = false
			high = 0
			resp.HighSeq = 0
		}
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(fake.Close)

	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-",
		ReplicaTargets: []string{fake.URL},
	})
	resp, got := post(t, primary.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "wm-one"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	var first server.JobStatus
	if err := json.Unmarshal(got, &first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first job's terminal record to be acked", func() bool {
		st := remoteStats(t, primary.URL)
		return len(st.ReplicaTargets) == 1 && st.ReplicaTargets[0].Watermark >= 1
	})
	mu.Lock()
	if seen[first.ID] == 0 {
		mu.Unlock()
		t.Fatal("follower never saw the first job despite an advanced watermark")
	}
	regress = true
	mu.Unlock()

	// The next push — the second job's record — returns the regressed
	// watermark; the primary must re-seed the first job to this target.
	resp, got = post(t, primary.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "wm-two"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second solve status = %d (body %s)", resp.StatusCode, got)
	}
	waitFor(t, "the regressed follower to be re-sent the first job", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen[first.ID] >= 2
	})
	waitFor(t, "replication lag to converge back to zero", func() bool {
		st := remoteStats(t, primary.URL)
		return st.ReplicationPending == 0 && st.ReplicationLag == 0 &&
			len(st.ReplicaTargets) == 1 && st.ReplicaTargets[0].Watermark >= 2
	})
}

// TestFollowerStoreFaultHoldsWatermark pins the follower half: an
// injected replica-write failure keeps the record serving from memory
// but must not advance the acked watermark — the follower never vouches
// for durability the disk refused — and the primary's stats surface the
// resulting lag. When the store heals, the next batch retries the dirty
// persist and the watermark catches up.
func TestFollowerStoreFaultHoldsWatermark(t *testing.T) {
	fs := store.NewFaultStore(store.NewMemStore())
	_, follower := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: fs,
	})
	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: store.NewMemStore(),
		ReplicaTargets: []string{follower.URL},
	})
	fs.FailEvery(1) // every store write fails until healed

	resp, got := post(t, primary.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "wm-fault"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	watermark := func() server.WatermarkResponse {
		_, body := get(t, follower.URL+"/v1/replication/watermark?origin=p0-")
		var wm server.WatermarkResponse
		if err := json.Unmarshal(body, &wm); err != nil {
			t.Fatalf("parsing watermark %q: %v", body, err)
		}
		return wm
	}
	waitFor(t, "the replica to apply in memory", func() bool {
		return watermark().Replicas >= 1
	})
	if wm := watermark(); wm.HighSeq != 0 {
		t.Fatalf("watermark advanced to %d over a failed persist", wm.HighSeq)
	}
	waitFor(t, "the primary to surface the lag", func() bool {
		st := remoteStats(t, primary.URL)
		return st.ReplicationLag >= 1
	})

	// Heal the store; the next batch retries the dirty persist and the
	// watermark catches up over both jobs.
	fs.FailEvery(0)
	resp, got = post(t, primary.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "wm-heal"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second solve status = %d (body %s)", resp.StatusCode, got)
	}
	waitFor(t, "the healed watermark to cover both jobs", func() bool {
		return watermark().HighSeq >= 2
	})
	waitFor(t, "the primary's lag to clear", func() bool {
		st := remoteStats(t, primary.URL)
		return st.ReplicationPending == 0 && st.ReplicationLag == 0
	})
}

// TestMultiTargetReplicationConverges pins R=2 fan-out at the server
// level: with two configured targets every record reaches both
// followers, both watermarks advance, the summed lag returns to zero
// and /v1/info lists the full target set.
func TestMultiTargetReplicationConverges(t *testing.T) {
	_, f1 := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "f1-", Store: store.NewMemStore(),
	})
	_, f2 := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "f2-", Store: store.NewMemStore(),
	})
	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: store.NewMemStore(),
		ReplicaTargets: []string{f1.URL, f2.URL},
	})
	resp, got := post(t, primary.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "fanout"), server.SolveSpec{Durability: server.DurabilityReplicated}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability != server.DurabilityReplicated {
		t.Fatalf("status durability = %q, want %q", st.Durability, server.DurabilityReplicated)
	}
	for _, f := range []*httptest.Server{f1, f2} {
		waitFor(t, "both followers to hold the replica", func() bool {
			rresp, _ := get(t, f.URL+"/v1/replicas/"+st.ID)
			return rresp.StatusCode == http.StatusOK
		})
	}
	waitFor(t, "both streams to converge", func() bool {
		stats := remoteStats(t, primary.URL)
		if len(stats.ReplicaTargets) != 2 || stats.ReplicationLag != 0 || stats.ReplicationPending != 0 {
			return false
		}
		for _, ts := range stats.ReplicaTargets {
			if ts.Watermark < 1 {
				return false
			}
		}
		return true
	})
	_, body := get(t, primary.URL+"/v1/info")
	var info server.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.ReplicaTargets) != 2 {
		t.Fatalf("Info.ReplicaTargets = %v, want both followers", info.ReplicaTargets)
	}
}
