package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/nocmap/store"
)

// TestFailedPushRetriedFirstInOrder: after a failed push the batch goes
// back to the front of the stream, in its own order, ahead of ops
// queued while it was in flight; an ID a newer op superseded in flight
// keeps the newer op in its queued place.
func TestFailedPushRetriedFirstInOrder(t *testing.T) {
	type push struct {
		req   ReplicateRequest
		reply chan int
	}
	pushes := make(chan push)
	done := make(chan struct{})
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := push{reply: make(chan int)}
		if err := json.NewDecoder(r.Body).Decode(&p.req); err != nil {
			t.Error(err)
		}
		select {
		case pushes <- p:
		case <-done:
			return
		}
		var code int
		select {
		case code = <-p.reply:
		case <-done:
			return
		}
		if code != http.StatusOK {
			w.WriteHeader(code)
			return
		}
		writeJSON(w, http.StatusOK, ReplicateResponse{})
	}))
	defer follower.Close()
	defer close(done) // before Close, which waits for blocked handlers

	r := newReplicator("p0-", replicatorHooks{})
	defer r.close()
	r.setTargets([]string{follower.URL})
	rec := func(id string, seq uint64) store.JobRecord {
		return store.JobRecord{ID: id, State: StateDone, Seq: seq}
	}
	ids := func(req ReplicateRequest) []string {
		var out []string
		for _, rec := range req.Records {
			out = append(out, fmt.Sprintf("%s@%d", rec.ID, rec.Seq))
		}
		return out
	}
	next := func() push {
		t.Helper()
		select {
		case p := <-pushes:
			return p
		case <-time.After(10 * time.Second):
			t.Fatal("no push reached the follower")
			return push{}
		}
	}

	// A warm-up push holds the stream while the batch under test
	// queues behind it, so that batch leaves as one push.
	r.enqueue(rec("p0-job-warm", 1))
	warm := next()
	var batch []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("p0-job-%02d", 8-i) // not in ID order
		r.enqueue(rec(id, uint64(10+i)))
		batch = append(batch, fmt.Sprintf("%s@%d", id, 10+i))
	}
	warm.reply <- http.StatusOK

	first := next()
	if got := ids(first.req); !slices.Equal(got, batch) {
		t.Fatalf("first push carried %v, want %v", got, batch)
	}
	// While it is in flight: a new record, then a newer op for the
	// batch's fourth ID.
	r.enqueue(rec("p0-job-new", 30))
	r.enqueue(rec("p0-job-05", 31))
	first.reply <- http.StatusInternalServerError

	want := append(slices.Delete(slices.Clone(batch), 3, 4), "p0-job-new@30", "p0-job-05@31")
	retry := next()
	if got := ids(retry.req); !slices.Equal(got, want) {
		t.Fatalf("push after the failure carried %v, want %v", got, want)
	}
	retry.reply <- http.StatusOK
}
