package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// walFuzzSeeds covers the bytes the fast path must hand back to
// json.Marshal: HTML-sensitive characters, U+2028/2029, invalid UTF-8,
// control bytes, whitespace inside raw values, and nil vs empty raws.
var walFuzzSeeds = []struct {
	op, id, key, state, origin string
	result, problem, errRaw    []byte
	seq                        uint64
	hit                        bool
}{
	{"job", "job-1", "k1", "done", "", []byte(`{"cost":12.5,"map":[1,2]}`), nil, nil, 7, true},
	{"job", "job-<&>", "k", "done", "s0-", []byte(`{"a":"<b>&"}`), []byte(`{}`), nil, 1, false},
	{"replica", "job-2", "k ", "failed", "s1-", []byte(`"   "`), nil, []byte(`{"code":"x"}`), 2, false},
	{"job", "job-\xff", "k", "queued", "", []byte("\"\xff\xfe\""), []byte(`{"app":{}}`), nil, 0, false},
	{"cache", "", "key\x01\x1f", "", "", []byte("{\"a\":\n 1,\t\"b\" : [ ]}"), nil, nil, 0, false},
	{"cache", "", "key", "", "", []byte{}, nil, nil, 0, false},
	{"job", "job-3", "k", "done", "", []byte{}, []byte{}, []byte(`null`), 3, true},
	{"cache", "", "key", "", "", []byte(`{"a":1`), nil, nil, 0, false},
	{"job", "job-4", "k", "done", "", []byte(` 1 `), nil, nil, 4, false},
	{"deljob", "job-5", "", "", "", nil, nil, nil, 0, false},
	{"job", "job\"6\\", "k\n", "done\t", "", []byte(`[true,false,null,-1e9]`), nil, nil, 1 << 63, true},
	{"job", "job-7", "k", "done", "", []byte("\"caf\xc3\xa9\xe2\x82\xac\""), nil, nil, 1, false},
	{"job", "job-\u2028", "k\u2029", "done", "", []byte("[\"\u2028\",\"\u2029\"]"), nil, nil, 1, false},
}

// FuzzWALEncoding checks the hand-written line encoder against
// json.Marshal(Op) on both of its paths: the WAL append path, which
// validates raw fields (the same bytes, or an error on both sides), and
// the trusted path that writes snapshots of a memState (the same bytes
// for every op a memState can hold).
func FuzzWALEncoding(f *testing.F) {
	for _, s := range walFuzzSeeds {
		f.Add(s.op, s.id, s.key, s.state, s.origin, s.result, s.problem, s.errRaw, s.seq, s.hit, s.result == nil)
	}
	f.Fuzz(func(t *testing.T, opName, id, key, state, origin string, result, problem, errRaw []byte, seq uint64, hit, nilResult bool) {
		if nilResult {
			result = nil
		}
		rec := &JobRecord{ID: id, Key: key, Problem: problem, State: state, CacheHit: hit, Coalesced: !hit,
			Result: result, Error: errRaw, Seq: seq, Minted: seq / 3, Origin: origin}
		ops := []Op{
			{Kind: OpKind(opName), Rec: rec, ID: id},
			{Kind: OpKind(opName), Key: key, Result: result},
		}
		for i := range ops {
			got, gerr := appendWALOp([]byte("prefix"), &ops[i], false)
			want, werr := json.Marshal(&ops[i])
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("appendWALOp err = %v, json.Marshal err = %v", gerr, werr)
			}
			if werr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Fatalf("appendWALOp = %s\njson.Marshal = %s", got, want)
			}
		}
		// A memState holds only raw values that are valid JSON (the
		// append path refuses anything else) and only put ops of the
		// shapes apply stores.
		for _, raw := range [][]byte{result, problem, errRaw} {
			if len(raw) > 0 && !json.Valid(raw) {
				return
			}
		}
		trusted := []Op{
			{Kind: OpPutJob, Rec: rec},
			{Kind: OpPutReplica, Rec: rec},
			{Kind: OpPutCache, Key: key, Result: result},
		}
		for i := range trusted {
			got, gerr := appendWALOp(nil, &trusted[i], true)
			want, werr := json.Marshal(&trusted[i])
			if gerr != nil || werr != nil || !bytes.Equal(got, want) {
				t.Fatalf("trusted appendWALOp = %s, %v\njson.Marshal = %s, %v", got, gerr, want, werr)
			}
		}
	})
}

// TestInvalidRawFieldRefused: a raw field that is not JSON never
// reaches the WAL, through either write path.
func TestInvalidRawFieldRefused(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bad := irec("job-bad", 1, `{"cost":`)
	if err := Apply(fs, PutJob(bad)); err == nil {
		t.Fatal("PutJob accepted a result that is not JSON")
	}
	if err := fs.ApplyOps([]Op{{Kind: OpPutJob, Rec: &bad}}); err == nil {
		t.Fatal("ApplyOps accepted a result that is not JSON")
	}
	if err := fs.ApplyOps([]Op{{Kind: OpPutCache, Key: "k", Result: json.RawMessage(`[1,`)}}); err == nil {
		t.Fatal("ApplyOps accepted a cache result that is not JSON")
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("refused ops reached the WAL: %q", data)
	}
}

// TestRawFieldRewrittenLikeMarshal: raw values json.Marshal would
// compact or escape take the json.Marshal path — the WAL line is
// exactly what json.Marshal writes, still one line — and replay, and a
// snapshot of the replayed state, return them.
func TestRawFieldRewrittenLikeMarshal(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 1 << 30, CompactBytes: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	raws := []string{"{\"a\":\n1}", `{"a": 1}`, `{"a":"x<y"}`}
	want := make([]byte, 0, 256)
	for i, raw := range raws {
		r := irec(fmt.Sprintf("job-%d", i), uint64(i+1), raw)
		line, err := json.Marshal(Op{Kind: OpPutJob, Rec: &r})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
		if i == 0 {
			err = Apply(fs, PutJob(r))
		} else {
			err = fs.ApplyOps([]Op{{Kind: OpPutJob, Rec: &r}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL =\n%s\nwant json.Marshal's\n%s", got, want)
	}
	if n := strings.Count(string(got), "\n"); n != len(raws) {
		t.Fatalf("%d ops took %d lines", len(raws), n)
	}
	check := func(fs *FileStore) {
		t.Helper()
		snap, err := fs.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) != len(raws) {
			t.Fatalf("replayed %d jobs, want %d", len(snap.Jobs), len(raws))
		}
		for i, rec := range snap.Jobs {
			compact, err := json.Marshal(json.RawMessage(raws[i]))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Result, compact) {
				t.Fatalf("job %d result = %s, want %s", i, rec.Result, compact)
			}
		}
	}
	again, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	check(again)
	// Fold the replayed state into a snapshot and read it back.
	compactNow(t, again, 1)
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	check(third)
}

// TestPoisonedStoreNeverPublishesUnappliedOp: an op fsynced but refused
// by the apply step is in the WAL and not in memory. The compactor
// snapshots memory, so no snapshot may cover the op's segment: the
// store goes read-only without rotating, the segment stays on disk and
// a reopen replays the op.
func TestPoisonedStoreNeverPublishesUnappliedOp(t *testing.T) {
	dir := t.TempDir()
	const trigger = 8
	fs, err := OpenConfig(dir, FileConfig{CompactOps: trigger})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the first pass at its start, so the poisoned op lands while
	// a compaction is in flight and its finish re-checks the triggers.
	began, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	fs.compactHook = func(step string) {
		if step == "begin" {
			first.Do(func() {
				close(began)
				<-release
			})
		}
	}
	// One job overwritten over and over: the op trigger needs a log
	// well past the live record count.
	for i := 0; i < trigger; i++ {
		if err := Apply(fs, PutJob(irec("job-1", uint64(i+1), `{"r":1}`))); err != nil {
			t.Fatal(err)
		}
	}
	<-began
	// Fill the new active segment up to one op short of its own trigger;
	// the poisoned op is the one that would rotate it.
	for i := trigger; i < 2*trigger-1; i++ {
		if err := Apply(fs, PutJob(irec("job-1", uint64(i+1), `{"r":1}`))); err != nil {
			t.Fatal(err)
		}
	}
	fs.applyFault = func(op Op) error {
		if op.Rec != nil && op.Rec.ID == "job-poison" {
			return fmt.Errorf("injected apply fault")
		}
		return nil
	}
	fs.mu.Lock()
	poisonSeq := fs.walSeq // the segment the poisoned op lands in
	fs.mu.Unlock()
	poison := irec("job-poison", 99, `{"r":2}`)
	if err := fs.ApplyOps([]Op{{Kind: OpPutJob, Rec: &poison}}); err == nil {
		t.Fatal("poisoned apply succeeded")
	}
	close(release)
	waitCompactions(t, fs, 1)

	fs.mu.Lock()
	snapSeq, walSeq := fs.snapSeq, fs.walSeq
	fs.mu.Unlock()
	if walSeq != poisonSeq {
		t.Fatalf("read-only store rotated: active segment %d, poisoned op in %d", walSeq, poisonSeq)
	}
	if snapSeq >= poisonSeq {
		t.Fatalf("snapshot covers segment %d, which holds the unapplied op", snapSeq)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(poisonSeq))); err != nil {
		t.Fatalf("segment holding the unapplied op: %v", err)
	}
	again, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 || snap.Jobs[1].ID != "job-poison" || snap.Jobs[0].Seq != 2*trigger-1 {
		t.Fatalf("reopen replayed %+v, want job-1 at seq %d and job-poison", snap.Jobs, 2*trigger-1)
	}
}
