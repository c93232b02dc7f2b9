package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/nocmap/store"
)

// TestReplicaNamespace pins the replica namespace against both
// implementations: replicas live apart from the store's own jobs,
// survive a reopen, and delete independently.
func TestReplicaNamespace(t *testing.T) {
	stores(t, func(t *testing.T, open func(t *testing.T) store.JobStore) {
		s := open(t)
		if err := store.Apply(s, store.PutJob(rec("own-1", store.StateDone, 1))); err != nil {
			t.Fatal(err)
		}
		replica := rec("s0-job-00000001", store.StateDone, 7)
		replica.Origin = "s0-"
		replica.Result = json.RawMessage(`{"feasible":true}`)
		if err := store.Apply(s, store.PutReplica(replica)); err != nil {
			t.Fatal(err)
		}
		if err := store.Apply(s, store.PutReplica(rec("s0-job-00000002", store.StateQueued, 0))); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) != 1 || len(snap.Replicas) != 2 {
			t.Fatalf("snapshot = %d jobs, %d replicas; want 1, 2", len(snap.Jobs), len(snap.Replicas))
		}
		if snap.Replicas[0].Origin != "s0-" || !bytes.Equal(snap.Replicas[0].Result, replica.Result) {
			t.Fatalf("replica did not round trip: %+v", snap.Replicas[0])
		}
		if err := store.Apply(s, store.DeleteReplica("s0-job-00000002")); err != nil {
			t.Fatal(err)
		}
		if err := store.Apply(s, store.DeleteReplica("never-existed")); err != nil {
			t.Fatalf("deleting an unknown replica: %v", err)
		}
		snap, err = s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Replicas) != 1 || snap.Replicas[0].ID != "s0-job-00000001" {
			t.Fatalf("replicas after delete = %+v, want the surviving s0-job-00000001", snap.Replicas)
		}
		s.Close()
	})
}

// TestReplicaNamespaceSurvivesReopen pins that a follower restart keeps
// its replicas: the WAL replays the replica namespace too.
func TestReplicaNamespaceSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	replica := rec("s0-job-00000001", store.StateDone, 7)
	replica.Origin = "s0-"
	if err := store.Apply(s, store.PutReplica(replica)); err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(s, store.PutReplica(rec("s0-job-00000002", store.StateQueued, 0))); err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(s, store.DeleteReplica("s0-job-00000002")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Replicas) != 1 || snap.Replicas[0].ID != "s0-job-00000001" {
		t.Fatalf("replicas after reopen = %+v, want only s0-job-00000001", snap.Replicas)
	}
	if snap.Replicas[0].Origin != "s0-" {
		t.Fatalf("replica origin lost across reopen: %+v", snap.Replicas[0])
	}
}

// TestFaultStoreFailNext pins clean failure injection: the op errors
// with ErrInjected and does not reach the inner store.
func TestFaultStoreFailNext(t *testing.T) {
	inner := store.NewMemStore()
	f := store.NewFaultStore(inner)
	f.FailNext(1)
	err := store.Apply(f, store.PutJob(rec("job-1", store.StateQueued, 0)))
	if !errors.Is(err, store.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	snap, _ := inner.Load()
	if len(snap.Jobs) != 0 {
		t.Fatalf("clean injected failure leaked into the inner store: %+v", snap.Jobs)
	}
	// Healed: the next op lands.
	if err := store.Apply(f, store.PutJob(rec("job-1", store.StateQueued, 0))); err != nil {
		t.Fatal(err)
	}
	snap, _ = f.Load()
	if len(snap.Jobs) != 1 {
		t.Fatalf("post-heal put missing: %+v", snap.Jobs)
	}
}

// TestFaultStoreTorn pins torn-write mode: the error comes back but the
// write actually landed — the lost-acknowledgment case replay
// idempotency must absorb.
func TestFaultStoreTorn(t *testing.T) {
	inner := store.NewMemStore()
	f := store.NewFaultStore(inner)
	f.SetTorn(true)
	f.FailNext(1)
	if err := store.Apply(f, store.PutJob(rec("job-1", store.StateDone, 1))); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	snap, _ := inner.Load()
	if len(snap.Jobs) != 1 {
		t.Fatal("torn write must reach the inner store before the error")
	}
}

// TestFaultStoreFailEvery pins the periodic dial.
func TestFaultStoreFailEvery(t *testing.T) {
	f := store.NewFaultStore(store.NewMemStore())
	f.FailEvery(3)
	var fails int
	for i := 0; i < 9; i++ {
		if err := store.Apply(f, store.DeleteJob("nope")); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("fail-every=3 over 9 ops injected %d faults, want 3", fails)
	}
}

// TestParseFaultSpec pins the -store-fault wire format.
func TestParseFaultSpec(t *testing.T) {
	f := store.NewFaultStore(store.NewMemStore())
	if err := store.ParseFaultSpec(f, "latency=1ms,fail-every=2,torn=1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := store.Apply(f, store.DeleteJob("a")); err != nil { // op 1: no fault, but latency
		t.Fatal(err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency dial did not delay the op")
	}
	if err := store.Apply(f, store.DeleteJob("b")); !errors.Is(err, store.ErrInjected) { // op 2: fault
		t.Fatalf("err = %v, want ErrInjected on the 2nd op", err)
	}
	for _, bad := range []string{"latency", "nonsense=1", "latency=xyz", "fail-every=abc"} {
		if err := store.ParseFaultSpec(store.NewFaultStore(store.NewMemStore()), bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
	// Empty segments are tolerated (trailing commas from shell quoting).
	if err := store.ParseFaultSpec(f, "fail-next=1,"); err != nil {
		t.Fatal(err)
	}
}
