package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// compactNow seals the active segment, folds everything sealed into a
// snapshot and waits until the store has published n snapshots.
func compactNow(t *testing.T, fs *FileStore, n uint64) {
	t.Helper()
	fs.mu.Lock()
	err := fs.rotateLocked()
	fs.kickCompactorLocked()
	fs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waitCompactions(t, fs, n)
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

	// The snapshot's name must carry the coverage watermark: it covers
	// every segment below the active one, and nothing else is left.
	fs.mu.Lock()
	active := fs.walSeq
	fs.mu.Unlock()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{snapshotName(active - 1), segmentName(active)}; !slices.Equal(names, want) {
		t.Fatalf("store files = %v, want %v", names, want)
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
	// Each round's result differs: an equal one would be written once
	// and referenced by key after that (see memState).
	big := `"` + strings.Repeat("x", 16<<10) + `"`
	for i := 0; i < 8; i++ {
		if err := Apply(fs, PutJob(irec("job-1", uint64(i+1), fmt.Sprintf(`{"round":%d,"blob":%s}`, i, big)))); err != nil {
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

// TestStaleSnapshotTmpRemovedOnOpen: a snapshot tmp file left by a
// compaction that died before publishing must be deleted during
// recovery — it is not a snapshot and nothing may ever read it.
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
	half := `{"op":"job","job":{"id":"job-9","state":"done"}}` + "\n" + `{"op":"job","job":{"id":"job-10","sta`
	if err := os.WriteFile(tmp, []byte(half), 0o644); err != nil {
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
	// The leftover is covered by the snapshot's name: deleted, not
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
	fs.applyFault = func(op Op) error {
		if op.Rec != nil && op.Rec.ID == "job-poison" {
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
	activeOps := fs.activeOps
	fs.mu.Unlock()
	if activeOps != 3 {
		t.Fatalf("activeOps = %d after a 3-op fsynced batch, want 3", activeOps)
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
	fs.applyFault = func(op Op) error { return fmt.Errorf("injected apply fault") }
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

// TestLegacySnapshotRefused: a store whose snapshot is the JSON-object
// snapshot.json from before snapshots were WAL lines is refused with an
// error naming the file, and the directory is left as it was — Open
// never starts over it with the snapshot's records missing.
func TestLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		legacySnapshotFile: `{"wal_seq":1,"jobs":[{"id":"job-old","key":"key-job-old","state":"done","seq":1}],"cache":[]}` + "\n",
		segmentName(2):     `{"op":"deljob","id":"job-old"}` + "\n",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if fs, err := OpenConfig(dir, FileConfig{}); err == nil || !strings.Contains(err.Error(), legacySnapshotFile) {
		if fs != nil {
			fs.Close()
		}
		t.Fatalf("Open over a snapshot.json = %v, want an error naming %s", err, legacySnapshotFile)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("refused directory changed: %v", entries)
	}
	for name, data := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != data {
			t.Fatalf("%s changed: %q (err=%v)", name, got, err)
		}
	}
}

// TestCorruptSnapshotFailsLoudly: a snapshot is a sealed segment, so
// neither a corrupt line nor a last line cut short is a torn tail —
// Open fails naming the file and leaves it byte for byte as it was.
func TestCorruptSnapshotFailsLoudly(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"corrupt-line": func(b []byte) []byte {
			return append([]byte("{garbage\n"), b...)
		},
		"ends-mid-line": func(b []byte) []byte {
			return b[:len(b)-5]
		},
		"bad-op": func(b []byte) []byte {
			return append(b, `{"op":"job"}`+"\n"...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := OpenConfig(dir, FileConfig{CompactOps: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := Apply(fs, PutJob(irec(fmt.Sprintf("job-%d", i), uint64(i+1), `{"r":1}`))); err != nil {
					t.Fatal(err)
				}
			}
			compactNow(t, fs, 1)
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(dir, snapshotName(1))
			data, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			bad := damage(data)
			if err := os.WriteFile(snap, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if fs, err := OpenConfig(dir, FileConfig{}); err == nil || !strings.Contains(err.Error(), snapshotName(1)) {
				if fs != nil {
					fs.Close()
				}
				t.Fatalf("Open over a damaged snapshot = %v, want an error naming %s", err, snapshotName(1))
			}
			if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, bad) {
				t.Fatalf("damaged snapshot changed by Open: %q (err=%v)", got, err)
			}
		})
	}
}

// TestOlderSnapshotRemovedOnOpen: a crash between a snapshot's rename
// and the deletes leaves the snapshot it replaces beside it. Open
// replays the newest one only and deletes the older one.
func TestOlderSnapshotRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(fs, PutJob(irec("job-1", 1, `{"r":1}`)), PutCache("k1", json.RawMessage(`[1]`))); err != nil {
		t.Fatal(err)
	}
	compactNow(t, fs, 1)
	older, err := os.ReadFile(filepath.Join(dir, snapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(fs, DeleteJob("job-1"), PutJob(irec("job-2", 2, `{"r":2}`)), PutCache("k1", json.RawMessage(`[2]`))); err != nil {
		t.Fatal(err)
	}
	compactNow(t, fs, 2)
	before := loadJSON(t, fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), older, 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if after := loadJSON(t, again); !bytes.Equal(before, after) {
		t.Fatalf("reopen beside an older snapshot:\n before %s\n after  %s", before, after)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(1))); !os.IsNotExist(err) {
		t.Fatalf("older snapshot survived Open (err=%v)", err)
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
