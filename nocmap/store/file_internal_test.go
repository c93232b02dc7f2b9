package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func irec(id string, seq uint64, result string) JobRecord {
	r := JobRecord{
		ID:    id,
		Key:   "key-" + id,
		State: StateDone,
		Seq:   seq,
	}
	if result != "" {
		r.Result = json.RawMessage(result)
	}
	return r
}

// waitCompactions blocks until the store has published at least n
// snapshots and no pass is in flight.
func waitCompactions(t *testing.T, fs *FileStore, n uint64) CompactionStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := fs.CompactionStats()
		if st.Compactions >= n && !st.Running {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// loadJSON marshals a store's snapshot for byte-level comparison.
func loadJSON(t *testing.T, fs *FileStore) []byte {
	t.Helper()
	snap, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSegmentRotation pins the tentpole mechanics: crossing the op
// trigger rotates to a fresh segment, the compactor folds the sealed
// one into the snapshot off the append path, and the folded segment is
// deleted — with the state surviving a reopen byte-identical.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := Apply(fs, PutJob(irec("job-1", uint64(i+1), fmt.Sprintf(`{"round":%d}`, i)))); err != nil {
			t.Fatal(err)
		}
	}
	st := waitCompactions(t, fs, 1)
	if st.Errors != 0 {
		t.Fatalf("compaction errors: %+v", st)
	}
	if st.Segments != 1 {
		t.Fatalf("folded segments not deleted: %+v", st)
	}
	before := loadJSON(t, fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot must carry the coverage watermark.
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"wal_seq":`)) {
		t.Fatalf("snapshot missing wal_seq watermark: %.120s", raw)
	}

	again, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if after := loadJSON(t, again); !bytes.Equal(before, after) {
		t.Fatalf("state drifted across reopen:\n before %s\n after  %s", before, after)
	}
}

// TestByteSizeTrigger pins the new trigger dimension: a handful of huge
// records must compact on volume alone, far below the op-count floor.
func TestByteSizeTrigger(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 1 << 30, CompactBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	big := `{"blob":"` + strings.Repeat("x", 16<<10) + `"}`
	for i := 0; i < 8; i++ {
		if err := Apply(fs, PutJob(irec("job-1", uint64(i+1), big))); err != nil {
			t.Fatal(err)
		}
	}
	st := waitCompactions(t, fs, 1)
	if st.Compactions == 0 {
		t.Fatalf("byte trigger never fired: %+v", st)
	}
	if st.PendingBytes >= 128<<10 {
		t.Fatalf("pending bytes did not shrink: %+v", st)
	}
}

// TestAppendsDuringCompaction drives appends concurrently with a
// throttled (slow) compaction pass and checks nothing deadlocks, the
// active segment keeps absorbing writes, and the final state survives
// reopen intact.
func TestAppendsDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 32})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	fs.compactThrottle = func() {
		select {
		case <-release:
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
	const total = 200
	for i := 0; i < total; i++ {
		if err := Apply(fs, PutJob(irec(fmt.Sprintf("job-%03d", i%7), uint64(i+1), fmt.Sprintf(`{"round":%d}`, i)))); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	st := waitCompactions(t, fs, 1)
	if st.Errors != 0 {
		t.Fatalf("compaction errors under concurrent appends: %+v", st)
	}
	before := loadJSON(t, fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if after := loadJSON(t, again); !bytes.Equal(before, after) {
		t.Fatalf("state drifted across reopen:\n before %s\n after  %s", before, after)
	}
}

// TestStaleSnapshotTmpRemovedOnOpen is the satellite regression: a
// snapshot.json.tmp left by a compaction that died before publishing
// must be deleted during recovery — it is not a snapshot and nothing
// may ever read it.
func TestStaleSnapshotTmpRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(fs, PutJob(irec("job-1", 1, `{"ok":true}`))); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, snapshotTmpFile)
	if err := os.WriteFile(tmp, []byte(`{"wal_seq":9,"jobs":[half-written garb`), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatalf("stale tmp must not fail Open: %v", err)
	}
	defer again.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale %s survived Open (err=%v)", snapshotTmpFile, err)
	}
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != "job-1" {
		t.Fatalf("state after tmp cleanup = %+v", snap.Jobs)
	}
}

// TestCompactionSurvivesLeftoverSegment is the post-rename-cleanup
// satellite: a folded segment that survives the publish (crash or
// failed delete between rename and unlink) must be deleted — never
// re-folded, never re-counted — on the next Open, and must not leave
// the store re-attempting compaction forever.
func TestCompactionSurvivesLeftoverSegment(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Stash a copy of every sealed segment at publish time, then restore
	// them after the pass — the exact disk state a crash between the
	// rename and the deletes leaves behind.
	var stash map[string][]byte
	fs.compactHook = func(step string) {
		if step != "renamed" {
			return
		}
		stash = make(map[string][]byte)
		segs, _ := filepath.Glob(filepath.Join(dir, segmentPrefix+"*"+segmentSuffix))
		for _, seg := range segs[:len(segs)-1] { // all but the active segment
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Errorf("stashing %s: %v", seg, err)
				continue
			}
			stash[seg] = data
		}
	}
	for i := 0; i < 40; i++ {
		if err := Apply(fs, PutJob(irec("job-1", uint64(i+1), fmt.Sprintf(`{"round":%d}`, i)))); err != nil {
			t.Fatal(err)
		}
	}
	waitCompactions(t, fs, 1)
	before := loadJSON(t, fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if len(stash) == 0 {
		t.Fatal("compaction hook never saw a sealed segment")
	}
	for seg, data := range stash {
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	again, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatalf("reopen with leftover folded segment: %v", err)
	}
	defer again.Close()
	// The leftover is covered by the snapshot's wal_seq: deleted, not
	// replayed (replaying would double-fold the churned ops).
	if after := loadJSON(t, again); !bytes.Equal(before, after) {
		t.Fatalf("leftover segment was re-folded:\n before %s\n after  %s", before, after)
	}
	for seg := range stash {
		if _, err := os.Stat(seg); !os.IsNotExist(err) {
			t.Fatalf("leftover folded segment %s survived Open (err=%v)", filepath.Base(seg), err)
		}
	}
	// And the settled counters must not re-attempt compaction forever:
	// a few more appends stay below the trigger.
	for i := 0; i < 4; i++ {
		if err := Apply(again, PutJob(irec("job-2", uint64(i+1), ""))); err != nil {
			t.Fatal(err)
		}
	}
	if st := again.CompactionStats(); st.Compactions != 0 || st.PendingOps >= 16 {
		t.Fatalf("counters did not settle after leftover cleanup: %+v", st)
	}
}

// TestFailedSegmentDeleteStillSettles pins the other half of the same
// satellite: when the snapshot publishes but deleting a folded segment
// fails, the compaction still counts, the counters still settle (no
// permanent re-compaction loop), and the error is surfaced in the
// stats rather than swallowed.
func TestFailedSegmentDeleteStillSettles(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 16})
	if err != nil {
		t.Fatal(err)
	}
	// At publish time, swap the first sealed segment for a non-empty
	// directory: os.Remove fails on it, simulating an unlink error.
	var blocked string
	fs.compactHook = func(step string) {
		if step != "renamed" || blocked != "" {
			return
		}
		segs, _ := filepath.Glob(filepath.Join(dir, segmentPrefix+"*"+segmentSuffix))
		if len(segs) < 2 {
			t.Error("no sealed segment at publish time")
			return
		}
		blocked = segs[0]
		if err := os.Remove(blocked); err != nil {
			t.Error(err)
			return
		}
		if err := os.MkdirAll(filepath.Join(blocked, "pin"), 0o755); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := Apply(fs, PutJob(irec("job-1", uint64(i+1), fmt.Sprintf(`{"round":%d}`, i)))); err != nil {
			t.Fatal(err)
		}
	}
	st := waitCompactions(t, fs, 1)
	if blocked == "" {
		t.Fatal("hook never pinned a segment")
	}
	if st.Errors == 0 {
		t.Fatalf("failed delete not surfaced: %+v", st)
	}
	// The compaction itself succeeded and the counters settled: more
	// appends below the trigger must not re-attempt compaction.
	passes := st.Compactions
	for i := 0; i < 4; i++ {
		if err := Apply(fs, PutJob(irec("job-2", uint64(i+1), ""))); err != nil {
			t.Fatal(err)
		}
	}
	if st := fs.CompactionStats(); st.Compactions != passes {
		t.Fatalf("failed cleanup re-triggered compaction: %+v (had %d passes)", st, passes)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Clear the obstruction; the next Open removes the stale segment.
	if err := os.RemoveAll(blocked); err != nil {
		t.Fatal(err)
	}
}

// TestMidBatchApplyFailureGoesReadOnly is the ApplyOps satellite: once
// a batch is fsynced, an op that fails to apply must flip the store
// read-only — loudly — instead of leaving the WAL silently ahead of
// the in-memory state with the op counters short.
func TestMidBatchApplyFailureGoesReadOnly(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fs.applyFault = func(op walOp) error {
		if op.Job != nil && op.Job.ID == "job-poison" {
			return fmt.Errorf("injected apply fault")
		}
		return nil
	}
	a, b, c := irec("job-a", 1, ""), irec("job-poison", 2, ""), irec("job-c", 3, "")
	err = fs.ApplyOps([]Op{
		{Kind: OpPutJob, Rec: &a},
		{Kind: OpPutJob, Rec: &b},
		{Kind: OpPutJob, Rec: &c},
	})
	if err == nil || !strings.Contains(err.Error(), "injected apply fault") {
		t.Fatalf("mid-batch apply failure returned %v", err)
	}
	// Loud: every subsequent write is refused.
	if err := Apply(fs, PutJob(irec("job-d", 4, ""))); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("store accepted writes after apply divergence: %v", err)
	}
	if err := fs.ApplyOps([]Op{{Kind: OpPutJob, Rec: &a}}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("ApplyOps accepted a batch after apply divergence: %v", err)
	}
	// The WAL holds the whole fsynced batch and the counters cover it.
	fs.mu.Lock()
	walOps := fs.walOps
	fs.mu.Unlock()
	if walOps != 3 {
		t.Fatalf("walOps = %d after a 3-op fsynced batch, want 3", walOps)
	}
	// Reads still work, and memory carries everything that applied.
	snap, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 {
		t.Fatalf("applied jobs = %+v, want job-a and job-c", snap.Jobs)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// The fault was injected, not real: replay recovers the full batch.
	again, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	snap, err = again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 3 {
		t.Fatalf("replayed jobs = %+v, want the whole fsynced batch", snap.Jobs)
	}
}

// TestSingleOpApplyFailureGoesReadOnly pins the same contract on a
// one-op batch, the shape every retried op takes.
func TestSingleOpApplyFailureGoesReadOnly(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.applyFault = func(op walOp) error { return fmt.Errorf("injected apply fault") }
	if err := Apply(fs, PutJob(irec("job-a", 1, ""))); err == nil {
		t.Fatal("append with a poisoned apply must fail")
	}
	fs.applyFault = nil
	if err := Apply(fs, PutJob(irec("job-b", 2, ""))); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("store writable after apply divergence: %v", err)
	}
}

// TestLegacyWALMigration: a store from before WAL segments (a single
// wal.jsonl) is refused with an error naming the file, and the
// directory is left as it was — Open never starts empty over it.
func TestLegacyWALMigration(t *testing.T) {
	dir := t.TempDir()
	legacyWAL := `{"op":"job","job":{"id":"job-old","key":"key-job-old","state":"done","seq":1}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, legacyWALFile), []byte(legacyWAL), 0o644); err != nil {
		t.Fatal(err)
	}
	if fs, err := OpenConfig(dir, FileConfig{}); err == nil || !strings.Contains(err.Error(), legacyWALFile) {
		if fs != nil {
			fs.Close()
		}
		t.Fatalf("Open over a wal.jsonl = %v, want an error naming %s", err, legacyWALFile)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != legacyWALFile {
		t.Fatalf("refused directory changed: %v", entries)
	}
	if got, err := os.ReadFile(filepath.Join(dir, legacyWALFile)); err != nil || string(got) != legacyWAL {
		t.Fatalf("wal.jsonl changed: %q (err=%v)", got, err)
	}
}

// TestSegmentGapFailsLoudly: a missing middle segment means fsynced ops
// vanished; Open must refuse rather than replay around the hole.
func TestSegmentGapFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 1 << 30}) // never compact
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := Apply(fs, PutJob(irec("job-1", uint64(i+1), ""))); err != nil {
			t.Fatal(err)
		}
	}
	// Seal two more segments by rotating manually.
	fs.mu.Lock()
	if err := fs.rotateLocked(); err != nil {
		fs.mu.Unlock()
		t.Fatal(err)
	}
	fs.mu.Unlock()
	if err := Apply(fs, PutJob(irec("job-1", 5, ""))); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	if err := fs.rotateLocked(); err != nil {
		fs.mu.Unlock()
		t.Fatal(err)
	}
	fs.mu.Unlock()
	if err := Apply(fs, PutJob(irec("job-1", 6, ""))); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenConfig(dir, FileConfig{}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("Open with a segment hole = %v, want loud failure", err)
	}
}
