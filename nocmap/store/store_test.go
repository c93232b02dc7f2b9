package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/nocmap/store"
)

// stores runs a subtest against both implementations so their semantics
// cannot drift.
func stores(t *testing.T, run func(t *testing.T, open func(t *testing.T) store.JobStore)) {
	t.Run("mem", func(t *testing.T) {
		run(t, func(t *testing.T) store.JobStore { return store.NewMemStore() })
	})
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		run(t, func(t *testing.T) store.JobStore {
			fs, err := store.OpenConfig(dir, store.FileConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return fs
		})
	})
}

// activeSegment returns the path of the highest-numbered WAL segment —
// the one that was open for appends when the store last closed.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1] // zero-padded names: lexical order is numeric order
}

func rec(id, state string, seq uint64) store.JobRecord {
	return store.JobRecord{
		ID:      id,
		Key:     "key-" + id,
		Problem: json.RawMessage(`{"app":{}}`),
		Spec:    json.RawMessage(`{"algorithm":"nmap-single"}`),
		State:   state,
		Seq:     seq,
	}
}

func TestPutLoadRoundTrip(t *testing.T) {
	stores(t, func(t *testing.T, open func(t *testing.T) store.JobStore) {
		s := open(t)
		defer s.Close()
		done := rec("job-1", store.StateDone, 1)
		done.Result = json.RawMessage(`{"feasible":true}`)
		for _, r := range []store.JobRecord{done, rec("job-2", store.StateQueued, 0)} {
			if err := store.Apply(s, store.PutJob(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Apply(s, store.PutCache("cache-a", json.RawMessage(`{"r":1}`))); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) != 2 || len(snap.Cache) != 1 {
			t.Fatalf("snapshot = %d jobs, %d cache entries; want 2, 1", len(snap.Jobs), len(snap.Cache))
		}
		if snap.Jobs[0].ID != "job-1" || !bytes.Equal(snap.Jobs[0].Result, done.Result) {
			t.Fatalf("job-1 did not round trip: %+v", snap.Jobs[0])
		}
		if snap.Jobs[1].State != store.StateQueued {
			t.Fatalf("job-2 state = %q", snap.Jobs[1].State)
		}
	})
}

func TestOverwriteAndDelete(t *testing.T) {
	stores(t, func(t *testing.T, open func(t *testing.T) store.JobStore) {
		s := open(t)
		defer s.Close()
		if err := store.Apply(s, store.PutJob(rec("job-1", store.StateQueued, 0))); err != nil {
			t.Fatal(err)
		}
		finished := rec("job-1", store.StateDone, 7)
		if err := store.Apply(s, store.PutJob(finished)); err != nil {
			t.Fatal(err)
		}
		if err := store.Apply(s, store.PutJob(rec("job-2", store.StateDone, 8))); err != nil {
			t.Fatal(err)
		}
		if err := store.Apply(s, store.DeleteJob("job-2")); err != nil {
			t.Fatal(err)
		}
		if err := store.Apply(s, store.DeleteJob("missing")); err != nil {
			t.Fatal(err)
		}
		if err := store.Apply(s, store.PutCache("k", json.RawMessage(`1`))); err != nil {
			t.Fatal(err)
		}
		if err := store.Apply(s, store.DeleteCache("k")); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) != 1 || snap.Jobs[0].State != store.StateDone || snap.Jobs[0].Seq != 7 {
			t.Fatalf("snapshot jobs = %+v; want the overwritten job-1 alone", snap.Jobs)
		}
		if len(snap.Cache) != 0 {
			t.Fatalf("cache = %+v after delete", snap.Cache)
		}
	})
}

// TestFileStoreReopen is the durability core: everything written before
// a close (or crash) is there after Open.
func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := rec("job-1", store.StateDone, 3)
	done.Result = json.RawMessage(`{"assignment":[0,1,2]}`)
	if err := store.Apply(s, store.PutJob(done)); err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(s, store.PutJob(rec("job-2", store.StateRunning, 0))); err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(s, store.PutCache("warm", json.RawMessage(`{"cached":true}`))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 || len(snap.Cache) != 1 {
		t.Fatalf("reopened snapshot = %d jobs, %d cache entries", len(snap.Jobs), len(snap.Cache))
	}
	if !bytes.Equal(snap.Jobs[0].Result, done.Result) {
		t.Fatalf("result drifted across reopen: %s", snap.Jobs[0].Result)
	}
	if snap.Jobs[1].State != store.StateRunning {
		t.Fatalf("live job state = %q", snap.Jobs[1].State)
	}
}

// TestFileStoreTornTail simulates a SIGKILL mid-append: a torn final
// WAL line must be dropped without losing the records before it.
func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(s, store.PutJob(rec("job-1", store.StateDone, 1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := activeSegment(t, dir)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"job","job":{"id":"job-2","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	again, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatalf("torn tail must not fail Open: %v", err)
	}
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != "job-1" {
		t.Fatalf("snapshot after torn tail = %+v; want job-1 alone", snap.Jobs)
	}
	// The truncated WAL must append cleanly again.
	if err := store.Apply(again, store.PutJob(rec("job-3", store.StateQueued, 0))); err != nil {
		t.Fatal(err)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	snap, err = third.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 {
		t.Fatalf("post-truncation append lost: %+v", snap.Jobs)
	}
}

// walJobIDs reads the job IDs of every put in dir's WAL segments, in
// file order: the write order a reopen replays.
func walJobIDs(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var op struct {
				Job *store.JobRecord `json:"job"`
			}
			if err := json.Unmarshal(line, &op); err != nil {
				t.Fatalf("wal line %q: %v", line, err)
			}
			if op.Job != nil {
				ids = append(ids, op.Job.ID)
			}
		}
	}
	return ids
}

// TestGroupCommitSerialOrder pins the WAL-order contract of the store's
// group commit (one ApplyOps batch, one append, one fsync): a single
// writer's ops land in the WAL in exactly the order it issued them,
// across however many batches it cuts them into.
func TestGroupCommitSerialOrder(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n, batch = 100, 7
	for i := 0; i < n; i += batch {
		var ops []store.Op
		for k := i; k < i+batch && k < n; k++ {
			ops = append(ops, store.PutJob(rec(fmt.Sprintf("job-%03d", k), store.StateDone, uint64(k+1))))
		}
		if err := fs.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	ids := walJobIDs(t, dir)
	if len(ids) != n {
		t.Fatalf("wal holds %d puts, want %d", len(ids), n)
	}
	for i, id := range ids {
		if want := fmt.Sprintf("job-%03d", i); id != want {
			t.Fatalf("wal line %d is %q, want %q: batches reordered", i, id, want)
		}
	}
}

// TestGroupCommitConcurrentOrder drives ApplyOps from many writers at
// once and checks the WAL keeps each writer's program order and each
// batch whole: batches from different writers may interleave, the ops
// inside one never do.
func TestGroupCommitConcurrentOrder(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, batch = 8, 10, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				ops := make([]store.Op, batch)
				for k := range ops {
					seq := b*batch + k
					ops[k] = store.PutJob(rec(fmt.Sprintf("w%d-%03d", w, seq), store.StateDone, uint64(seq+1)))
				}
				if err := fs.ApplyOps(ops); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	ids := walJobIDs(t, dir)
	if len(ids) != writers*batches*batch {
		t.Fatalf("wal holds %d puts, want %d", len(ids), writers*batches*batch)
	}
	next := make([]int, writers)
	for i, id := range ids {
		var w, seq int
		if _, err := fmt.Sscanf(id, "w%d-%d", &w, &seq); err != nil {
			t.Fatalf("wal line %d: unparseable id %q", i, id)
		}
		if seq != next[w] {
			t.Fatalf("writer %d reordered: wal line %d is %03d, expected %03d", w, i, seq, next[w])
		}
		if seq%batch != 0 {
			// Mid-batch: the line before must be the same writer's
			// previous op, or the batch was split.
			var pw, pseq int
			fmt.Sscanf(ids[i-1], "w%d-%d", &pw, &pseq)
			if pw != w || pseq != seq-1 {
				t.Fatalf("batch of writer %d split at wal line %d by %q", w, i, ids[i-1])
			}
		}
		next[w]++
	}
}

// TestGroupCommitTornBatch reuses the FaultStore torn-write hook at
// batch granularity: the batch reached the disk but its acknowledgment
// was lost. The server flusher's answer — retry the batch op by op —
// re-applies every op; replay idempotency absorbs the duplicates, and
// no op is lost or reordered, live or after a reopen.
func TestGroupCommitTornBatch(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fault := store.NewFaultStore(fs)
	fault.SetTorn(true)
	fault.FailNext(1) // the first barrier tears: applied, then "ack lost"
	batch := []store.Op{
		store.PutJob(rec("job-a", store.StateDone, 1)),
		store.PutJob(rec("job-b", store.StateDone, 2)),
	}
	if err := fault.ApplyOps(batch); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("torn batch err = %v, want ErrInjected", err)
	}
	for _, op := range batch {
		if err := fault.ApplyOps([]store.Op{op}); err != nil {
			t.Fatalf("op-by-op retry: %v", err)
		}
	}
	if err := fault.Close(); err != nil {
		t.Fatal(err)
	}
	if got := walJobIDs(t, dir); fmt.Sprint(got) != "[job-a job-b job-a job-b]" {
		t.Fatalf("wal puts = %v, want the torn batch then its retry", got)
	}
	again, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 || snap.Jobs[0].ID != "job-a" || snap.Jobs[1].ID != "job-b" {
		t.Fatalf("torn batch replayed to %+v, want job-a then job-b once each", snap.Jobs)
	}
}

// TestGroupCommitCrashPrefix is the SIGKILL-mid-batch property: a crash
// that tears a multi-op ApplyOps batch reopens to a strict PREFIX of
// the write order — every acknowledged batch, the whole lines of the
// torn one behind it, and never a hole.
func TestGroupCommitCrashPrefix(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const acked, batch = 40, 8
	for i := 0; i < acked; i += batch {
		var ops []store.Op
		for k := i; k < i+batch; k++ {
			ops = append(ops, store.PutJob(rec(fmt.Sprintf("job-%03d", k), store.StateDone, uint64(k+1))))
		}
		if err := fs.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// The next batch tore halfway through its WAL append: one whole
	// line reached the disk, the second did not.
	f, err := os.OpenFile(activeSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"job","job":{"id":"job-040","state":"done"}}` + "\n" +
		`{"op":"job","job":{"id":"job-041","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	again, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatalf("reopen after mid-batch crash: %v", err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != acked+1 {
		t.Fatalf("recovered %d jobs, want the %d acked plus the torn batch's whole line", len(snap.Jobs), acked)
	}
	for i, j := range snap.Jobs {
		if want := fmt.Sprintf("job-%03d", i); j.ID != want {
			t.Fatalf("recovered job %d is %q, want %q: not a prefix of the write order", i, j.ID, want)
		}
	}
}

// TestFileStoreCompaction drives enough churn to trigger snapshotting
// and checks the state survives (snapshot + emptied WAL, then reopen).
func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Churn one job far past the compaction floor: the live state stays
	// tiny, so the 4x rule kicks in as soon as the floor is crossed.
	var last store.JobRecord
	for i := 0; i < 1200; i++ {
		last = rec("job-1", store.StateDone, uint64(i+1))
		last.Result = json.RawMessage(fmt.Sprintf(`{"round":%d}`, i))
		if err := store.Apply(s, store.PutJob(last)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap.*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("compaction left snapshots %v, want exactly one", snaps)
	}
	snapInfo, err := os.Stat(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if snapInfo.Size() == 0 {
		t.Fatal("snapshot is empty")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var activeSize int64
	for _, seg := range segs {
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		activeSize += info.Size()
	}
	if activeSize > 64<<10 {
		t.Fatalf("wal did not shrink at compaction: %d bytes across %d segments", activeSize, len(segs))
	}

	again, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || !bytes.Equal(snap.Jobs[0].Result, last.Result) {
		t.Fatalf("compacted state lost the latest record: %+v", snap.Jobs)
	}
}

// TestInvalidOpsNeverReachDisk pins the review fix: a malformed write
// (job without an ID, cache entry without a key) is rejected up front —
// it must not be fsynced into the WAL, where it would poison the next
// replay.
func TestInvalidOpsNeverReachDisk(t *testing.T) {
	stores(t, func(t *testing.T, open func(t *testing.T) store.JobStore) {
		s := open(t)
		defer s.Close()
		if err := store.Apply(s, store.PutJob(store.JobRecord{State: store.StateQueued})); err == nil {
			t.Fatal("PutJob without an ID must fail")
		}
		if err := store.Apply(s, store.PutCache("", json.RawMessage(`1`))); err == nil {
			t.Fatal("PutCache without a key must fail")
		}
		if err := store.Apply(s, store.PutJob(rec("job-1", store.StateQueued, 0))); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) != 1 || len(snap.Cache) != 0 {
			t.Fatalf("rejected ops leaked into state: %+v", snap)
		}
	})
	// And the durable store must reopen cleanly after the rejections.
	dir := t.TempDir()
	fs, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_ = store.Apply(fs, store.PutJob(store.JobRecord{State: store.StateQueued})) // rejected
	if err := store.Apply(fs, store.PutJob(rec("job-1", store.StateDone, 1))); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	again, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatalf("reopen after rejected writes: %v", err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 {
		t.Fatalf("snapshot = %+v, want the one valid record", snap.Jobs)
	}
}

// TestFileStoreMidLogCorruptionFailsLoudly pins the other half of the
// torn-tail contract: garbage in the *middle* of the WAL is not a torn
// tail — silently truncating there would discard validly fsynced
// records behind it, so Open must refuse instead.
func TestFileStoreMidLogCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(s, store.PutJob(rec("job-1", store.StateDone, 1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := activeSegment(t, dir)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte("{garbage\n"), data...)
	if err := os.WriteFile(wal, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenConfig(dir, store.FileConfig{}); err == nil {
		t.Fatal("mid-log corruption must fail Open, not silently truncate valid records")
	}
}

// TestTerminal pins the state classification the server replays by.
func TestTerminal(t *testing.T) {
	for state, want := range map[string]bool{
		store.StateQueued:    false,
		store.StateRunning:   false,
		store.StateDone:      true,
		store.StateFailed:    true,
		store.StateCancelled: true,
	} {
		if got := store.Terminal(state); got != want {
			t.Errorf("Terminal(%q) = %v, want %v", state, got, want)
		}
	}
}
