package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/nocmap/store"
)

// heldPush is one replicate push held at a test follower until the
// test answers it.
type heldPush struct {
	req   RecordBatch
	reply chan heldReply
}

// heldReply is the follower's answer: a status code, and on 200 the
// watermark it reports.
type heldReply struct {
	code    int
	highSeq uint64
}

// holdingFollower starts a follower that hands every push to the test
// and answers as the test says. next waits for the next push.
func holdingFollower(t *testing.T) (url string, next func() heldPush) {
	pushes := make(chan heldPush)
	done := make(chan struct{})
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := heldPush{reply: make(chan heldReply)}
		if err := json.NewDecoder(r.Body).Decode(&p.req); err != nil {
			t.Error(err)
		}
		select {
		case pushes <- p:
		case <-done:
			return
		}
		var reply heldReply
		select {
		case reply = <-p.reply:
		case <-done:
			return
		}
		if reply.code != http.StatusOK {
			w.WriteHeader(reply.code)
			return
		}
		writeJSON(w, http.StatusOK, ReplicateResponse{HighSeq: reply.highSeq})
	}))
	t.Cleanup(follower.Close)
	t.Cleanup(func() { close(done) }) // before Close, which waits for blocked handlers
	return follower.URL, func() heldPush {
		t.Helper()
		select {
		case p := <-pushes:
			return p
		case <-time.After(10 * time.Second):
			t.Fatal("no push reached the follower")
			return heldPush{}
		}
	}
}

func doneRecord(id string, seq uint64) store.Op {
	return jobPut(store.JobRecord{ID: id, State: StateDone, Seq: seq})
}

func jobPut(rec store.JobRecord) store.Op {
	return store.Op{Kind: store.OpPutJob, Rec: &rec}
}

// TestFailedPushRetriedFirstInOrder: after a failed push the batch goes
// back to the front of the stream, in its own order, ahead of ops
// queued while it was in flight; an ID a newer op superseded in flight
// keeps the newer op in its queued place.
func TestFailedPushRetriedFirstInOrder(t *testing.T) {
	url, next := holdingFollower(t)
	r := newReplicator("p0-", replicatorHooks{})
	defer r.close()
	r.setTargets([]string{url})
	ids := func(req RecordBatch) []string {
		var out []string
		for _, op := range req.Ops {
			out = append(out, fmt.Sprintf("%s@%d", op.Rec.ID, op.Rec.Seq))
		}
		return out
	}

	// A warm-up push holds the stream while the batch under test
	// queues behind it, so that batch leaves as one push.
	r.enqueue(doneRecord("p0-job-warm", 1))
	warm := next()
	var batch []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("p0-job-%02d", 8-i) // not in ID order
		r.enqueue(doneRecord(id, uint64(10+i)))
		batch = append(batch, fmt.Sprintf("%s@%d", id, 10+i))
	}
	warm.reply <- heldReply{code: http.StatusOK}

	first := next()
	if got := ids(first.req); !slices.Equal(got, batch) {
		t.Fatalf("first push carried %v, want %v", got, batch)
	}
	// While it is in flight: a new record, then a newer op for the
	// batch's fourth ID.
	r.enqueue(doneRecord("p0-job-new", 30))
	r.enqueue(doneRecord("p0-job-05", 31))
	first.reply <- heldReply{code: http.StatusInternalServerError}

	want := append(slices.Delete(slices.Clone(batch), 3, 4), "p0-job-new@30", "p0-job-05@31")
	retry := next()
	if got := ids(retry.req); !slices.Equal(got, want) {
		t.Fatalf("push after the failure carried %v, want %v", got, want)
	}
	retry.reply <- heldReply{code: http.StatusOK}
}

// TestWatermarkNeverPassesPendingSeq: with more than one batch of ops
// queued, jobs enqueued while live that finish late leave behind the
// jobs that finished before them, so after every push the follower's
// watermark — the highest terminal seq it holds — stays below every
// terminal seq still queued at the primary, and a promotion by
// watermark never picks a holder missing a seq below its own.
func TestWatermarkNeverPassesPendingSeq(t *testing.T) {
	url, next := holdingFollower(t)
	r := newReplicator("p0-", replicatorHooks{})
	defer r.close()
	r.setTargets([]string{url})
	r.mu.Lock()
	st := r.streams[url]
	r.mu.Unlock()

	r.enqueue(doneRecord("p0-job-warm", 1))
	warm := next()
	// Two jobs are queued live ahead of 80 that finish first; then they
	// finish too, with the last seqs.
	r.enqueue(jobPut(store.JobRecord{ID: "p0-job-live1", State: StateRunning}))
	r.enqueue(jobPut(store.JobRecord{ID: "p0-job-live2", State: StateQueued}))
	seq := uint64(1)
	for i := 0; i < 80; i++ {
		seq++
		r.enqueue(doneRecord(fmt.Sprintf("p0-job-%03d", i), seq))
	}
	r.enqueue(doneRecord("p0-job-live2", seq+1))
	r.enqueue(doneRecord("p0-job-live1", seq+2))
	warm.reply <- heldReply{code: http.StatusOK, highSeq: 1}

	high, pushed := uint64(1), 0
	for pushed < 82 {
		p := next()
		for _, op := range p.req.Ops {
			if store.Terminal(op.Rec.State) {
				high = max(high, op.Rec.Seq)
			}
			pushed++
		}
		st.mu.Lock()
		for id, e := range st.pending {
			if op := e.Value.(store.Op); op.Rec != nil && store.Terminal(op.Rec.State) && op.Rec.Seq <= high {
				st.mu.Unlock()
				t.Fatalf("a push raised the follower's watermark to %d while %s@%d is still queued", high, id, op.Rec.Seq)
			}
		}
		st.mu.Unlock()
		p.reply <- heldReply{code: http.StatusOK, highSeq: high}
	}
	if high != seq+2 {
		t.Fatalf("follower's watermark ended at %d, want %d", high, seq+2)
	}
}

// TestDeadFollowerBacklogBounded: against a follower that refuses every
// connection, a stream's backlog stays within the primary's own job
// population plus one batch. An eviction drops the pending op of an ID
// no push carried instead of queueing a delete the follower was never
// owed.
func TestDeadFollowerBacklogBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	const retention, queue = 16, 64
	s, err := New(Config{Pool: 1, QueueSize: queue, CacheSize: 8, Retention: retention,
		IDPrefix: "p0-", ReplicaTargets: []string{dead}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for i := range 5000 {
		if rec := postTo(h, "/v1/solve", tinyBody(fmt.Sprintf("dead-follower-%d", i), "")); rec.Code != http.StatusOK {
			t.Fatalf("solve %d answered %d %s", i, rec.Code, rec.Body)
		}
	}
	if got, bound := s.Stats().ReplicationPending, retention+queue+replicateBatch; got > bound {
		t.Fatalf("ReplicationPending = %d after 5000 jobs against a dead follower, want <= %d", got, bound)
	}
}
