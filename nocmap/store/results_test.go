package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// model is the store's contract without the result table: every record
// and cache entry keeps a copy of what it was put with.
type model struct {
	jobs, replicas table[JobRecord]
	cache          table[json.RawMessage]
}

func (m *model) apply(op Op) {
	switch op.Kind {
	case OpPutJob:
		m.jobs.put(op.Rec.ID, copyRecord(*op.Rec))
	case OpPutReplica:
		m.replicas.put(op.Rec.ID, copyRecord(*op.Rec))
	case OpPutCache:
		m.cache.put(op.Key, rawCopy(op.Result))
	case OpDeleteJob:
		m.jobs.del(op.ID)
	case OpDeleteReplica:
		m.replicas.del(op.ID)
	case OpDeleteCache:
		m.cache.del(op.Key)
	}
}

func (m *model) json(t *testing.T) []byte {
	t.Helper()
	snap := &Snapshot{}
	for _, id := range m.jobs.order {
		snap.Jobs = append(snap.Jobs, m.jobs.m[id])
	}
	for _, k := range m.cache.order {
		snap.Cache = append(snap.Cache, CacheEntry{Key: k, Result: m.cache.m[k]})
	}
	for _, id := range m.replicas.order {
		snap.Replicas = append(snap.Replicas, m.replicas.m[id])
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkRefs requires every table entry's count to be the number of
// records and cache entries that share it, and no entry without one.
func checkRefs(t *testing.T, s *memState) {
	t.Helper()
	counts := make(map[string]int)
	count := func(key string, res json.RawMessage) {
		if s.shares(key, res) {
			counts[key]++
		}
	}
	for _, r := range s.jobs.m {
		count(r.Key, r.Result)
	}
	for _, r := range s.replicas.m {
		count(r.Key, r.Result)
	}
	for k, r := range s.cache.m {
		count(k, r)
	}
	for k, e := range s.results {
		if e.refs != counts[k] || e.refs == 0 {
			t.Fatalf("table entry %q counts %d shares, %d records share it", k, e.refs, counts[k])
		}
	}
}

// randomOp draws one op over a few IDs and keys, so batches re-put,
// delete and re-create the same slots and keys. Results are mostly the
// key's one answer, sometimes a different one, sometimes one shared
// across keys; cancelled jobs carry partial results.
func randomOp(rng *rand.Rand) Op {
	key := fmt.Sprintf("k%d", rng.Intn(4))
	if rng.Intn(20) == 0 {
		key = ""
	}
	res := json.RawMessage(fmt.Sprintf(`{"key":%q,"cost":1}`, key))
	switch rng.Intn(8) {
	case 0:
		res = json.RawMessage(fmt.Sprintf(`{"key":%q,"cost":2}`, key))
	case 1:
		res = json.RawMessage(`{"same":true}`)
	}
	rec := JobRecord{Key: key, State: StateDone, Result: res, Seq: uint64(rng.Intn(100) + 1)}
	switch rng.Intn(6) {
	case 0:
		rec.State, rec.Result = StateCancelled, json.RawMessage(`{"partial":true}`)
		if rng.Intn(2) == 0 {
			rec.Result = res
		}
	case 1:
		rec.State, rec.Result, rec.Problem = StateQueued, nil, json.RawMessage(`{"cores":2}`)
	}
	switch n := rng.Intn(20); {
	case n < 7:
		rec.ID = fmt.Sprintf("job-%d", rng.Intn(6))
		return Op{Kind: OpPutJob, Rec: &rec}
	case n < 10:
		rec.ID = fmt.Sprintf("rep-%d", rng.Intn(4))
		return Op{Kind: OpPutReplica, Rec: &rec}
	case n < 14:
		if key == "" {
			key = "k0"
		}
		return Op{Kind: OpPutCache, Key: key, Result: res}
	case n < 17:
		return Op{Kind: OpDeleteJob, ID: fmt.Sprintf("job-%d", rng.Intn(6))}
	case n < 18:
		return Op{Kind: OpDeleteReplica, ID: fmt.Sprintf("rep-%d", rng.Intn(4))}
	}
	return Op{Kind: OpDeleteCache, Key: fmt.Sprintf("k%d", rng.Intn(4))}
}

// TestResultTableMatchesModel drives random batches through a
// FileStore that compacts often and is reopened now and then, and
// requires its contents after every batch to equal a model that keeps
// each record's result as put — so a reference line always resolves to
// the bytes its op carried, whatever the earlier ops of its batch did
// to the table — and the table's counts to match its sharers.
func TestResultTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		cfg := FileConfig{CompactOps: 16 + rng.Intn(32)}
		fs, err := OpenConfig(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var m model
		mem := NewMemStore()
		passes := uint64(0)
		for b := 0; b < 300; b++ {
			ops := make([]Op, 1+rng.Intn(8))
			for i := range ops {
				ops[i] = randomOp(rng)
				m.apply(ops[i])
			}
			if err := fs.ApplyOps(ops); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			}
			if err := mem.ApplyOps(ops); err != nil {
				t.Fatal(err)
			}
			want := m.json(t)
			if got := loadJSON(t, fs); !bytes.Equal(got, want) {
				t.Fatalf("seed %d batch %d: store holds\n%s\nwant\n%s", seed, b, got, want)
			}
			snap, _ := mem.Load()
			if got, _ := json.Marshal(snap); !bytes.Equal(got, want) {
				t.Fatalf("seed %d batch %d: MemStore holds\n%s\nwant\n%s", seed, b, got, want)
			}
			fs.mu.Lock()
			checkRefs(t, &fs.state)
			fs.mu.Unlock()
			if b%25 == 24 {
				if err := fs.Close(); err != nil {
					t.Fatal(err)
				}
				st := fs.CompactionStats()
				if passes += st.Compactions; st.Errors != 0 {
					t.Fatalf("seed %d: compaction errors %+v", seed, st)
				}
				if fs, err = OpenConfig(dir, cfg); err != nil {
					t.Fatalf("seed %d batch %d: reopen: %v", seed, b, err)
				}
				if got := loadJSON(t, fs); !bytes.Equal(got, want) {
					t.Fatalf("seed %d batch %d: reopened store holds\n%s\nwant\n%s", seed, b, got, want)
				}
				checkRefs(t, &fs.state)
			}
		}
		if passes == 0 {
			t.Fatalf("seed %d: no compaction ran", seed)
		}
		// Deleting everything empties the table.
		var dels []Op
		for _, id := range fs.state.jobs.order {
			dels = append(dels, DeleteJob(id))
		}
		for _, id := range fs.state.replicas.order {
			dels = append(dels, DeleteReplica(id))
		}
		for _, k := range fs.state.cache.order {
			dels = append(dels, DeleteCache(k))
		}
		if err := fs.ApplyOps(dels); err != nil {
			t.Fatal(err)
		}
		if n := len(fs.state.results); n != 0 {
			t.Fatalf("seed %d: %d table entries outlive every record", seed, n)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultWrittenOnce: a result put by a cache entry and a job in one
// batch, then by a hit in the next, and a replica after a compaction,
// is in the WAL once and in the snapshot once; the lines that share it
// name its key.
func TestResultWrittenOnce(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 1 << 30, CompactBytes: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	res := `{"cost":42,"mapping":[3,1,0,2]}`
	done := func(id string, seq uint64) JobRecord {
		return JobRecord{ID: id, Key: "k", State: StateDone, Result: json.RawMessage(res), Seq: seq}
	}
	if err := Apply(fs, PutCache("k", json.RawMessage(res)), PutJob(done("job-1", 1))); err != nil {
		t.Fatal(err)
	}
	if err := Apply(fs, PutJob(done("job-2", 2))); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(res)); n != 1 {
		t.Fatalf("the WAL holds the result %d times, want once:\n%s", n, data)
	}
	if n := bytes.Count(data, []byte(`"ref":true`)); n != 2 {
		t.Fatalf("the WAL holds %d reference lines, want 2:\n%s", n, data)
	}
	compactNow(t, fs, 1)
	rep := done("s1-job-9", 9)
	rep.Origin = "s1-"
	if err := Apply(fs, PutReplica(rep)); err != nil {
		t.Fatal(err)
	}
	compactNow(t, fs, 2)
	before := loadJSON(t, fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(snap, []byte(res)); n != 1 || bytes.Count(snap, []byte("\n")) != 4 {
		t.Fatalf("the snapshot holds the result %d times, want once in 4 lines:\n%s", n, snap)
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

// TestLegacyStoreLoads opens a store written before the result table
// (testdata/legacy: a snapshot and a WAL segment whose lines all carry
// their results, covering the six op kinds, a cancelled job's partial
// result and one result under several records), requires Load to equal
// what that code loaded, then compacts it and requires the same state
// from a snapshot that holds each result once.
func TestLegacyStoreLoads(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "legacy.load.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want Snapshot
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{snapshotName(1), segmentName(2)} {
		data, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(fs *FileStore) {
		t.Helper()
		got, err := fs.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) {
			g, _ := json.Marshal(got)
			t.Fatalf("Load =\n%s\nwant\n%s", g, golden)
		}
	}
	fs, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	check(fs)
	compactNow(t, fs, 1)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenConfig(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	check(again)
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName(2)))
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[string]bool)
	for _, r := range append(want.Jobs, want.Replicas...) {
		results[string(r.Result)] = len(r.Result) > 0
	}
	for _, c := range want.Cache {
		results[string(c.Result)] = true
	}
	for res, ok := range results {
		if n := strings.Count(string(snap), res); ok && n != 1 {
			t.Fatalf("the snapshot holds %s %d times, want once:\n%s", res, n, snap)
		}
	}
}

// TestUnknownResultReferenceFails: a line naming a result the table
// lacks is corruption wherever it is — a sealed segment, a snapshot or
// the active segment's last line. OpenConfig fails naming the file and
// leaves it byte for byte.
func TestUnknownResultReferenceFails(t *testing.T) {
	dangling := `{"op":"job","job":{"id":"job-2","key":"k9","state":"done","seq":2},"ref":true}` + "\n"
	good := `{"op":"job","job":{"id":"job-1","key":"k1","state":"done","result":{"r":1},"seq":1}}` + "\n"
	for _, c := range []struct {
		name  string
		files map[string]string
	}{
		{"sealed segment", map[string]string{segmentName(1): good + dangling, segmentName(2): ""}},
		{"snapshot", map[string]string{snapshotName(1): good + dangling, segmentName(2): good}},
		{"active tail", map[string]string{segmentName(1): good + dangling}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			bad := ""
			for name, data := range c.files {
				if strings.Contains(data, `"ref"`) {
					bad = name
				}
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fs, err := OpenConfig(dir, FileConfig{})
			if err == nil {
				fs.Close()
				t.Fatal("OpenConfig loaded a reference to an unknown result")
			}
			if !strings.Contains(err.Error(), bad) {
				t.Fatalf("error %q does not name %s", err, bad)
			}
			data, err := os.ReadFile(filepath.Join(dir, bad))
			if err != nil || string(data) != c.files[bad] {
				t.Fatalf("%s changed: %q, %v", bad, data, err)
			}
		})
	}
}
