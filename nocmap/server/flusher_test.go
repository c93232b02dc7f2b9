package server

import (
	"context"
	"testing"

	"repro/nocmap/store"
)

// TestFlusherIsolatesFailedOp pins the flusher's failure path: when a
// batch fails, the ops are retried one by one, so only the bad op is
// lost. Here the batch and the first retry fail: StoreErrors counts
// exactly one failure, the op behind it in the batch lands, and the
// failed replica put is marked dirty before syncStore returns — so no
// watermark computed after the barrier can vouch for it.
func TestFlusherIsolatesFailedOp(t *testing.T) {
	mem := store.NewMemStore()
	fault := store.NewFaultStore(mem)
	s, err := New(Config{Pool: 1, QueueSize: 8, CacheSize: 8, Store: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	bad := store.JobRecord{ID: "p0-job-00000001", Origin: "p0-", State: store.StateDone, Seq: 1}
	behind := store.JobRecord{ID: "p0-job-00000002", Origin: "p0-", State: store.StateDone, Seq: 2}
	fault.FailNext(2)
	s.mu.Lock()
	// One critical section: both ops ride the same flushed batch.
	for _, rec := range []store.JobRecord{bad, behind} {
		s.replicas[rec.ID] = rec
		r := rec
		s.enqueueOpLocked(store.Op{Kind: store.OpPutReplica, Rec: &r})
	}
	ticket := s.outSeq
	s.mu.Unlock()
	if err := s.syncStore(context.Background(), ticket); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	errs, badDirty, behindDirty := s.stats.StoreErrors, s.replicaDirty[bad.ID], s.replicaDirty[behind.ID]
	s.mu.Unlock()
	if errs != 1 {
		t.Fatalf("StoreErrors = %d, want 1 (only the op whose retry failed)", errs)
	}
	if !badDirty || behindDirty {
		t.Fatalf("replicaDirty after syncStore: bad=%v behind=%v, want true/false", badDirty, behindDirty)
	}
	snap, err := mem.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Replicas) != 1 || snap.Replicas[0].ID != behind.ID {
		t.Fatalf("store replicas = %+v, want only %s", snap.Replicas, behind.ID)
	}
}
