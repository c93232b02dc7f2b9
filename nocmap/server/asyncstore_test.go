package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/nocmap/server"
	"repro/nocmap/store"
)

// batchCountingStore records every ApplyOps batch the server's flusher
// hands down — the probe the eviction-batching regression test reads
// flush granularity from.
type batchCountingStore struct {
	*store.MemStore

	mu      sync.Mutex
	batches [][]store.Op
}

func (b *batchCountingStore) ApplyOps(ops []store.Op) error {
	b.mu.Lock()
	b.batches = append(b.batches, append([]store.Op(nil), ops...))
	b.mu.Unlock()
	return b.MemStore.ApplyOps(ops)
}

func (b *batchCountingStore) snapshotBatches() [][]store.Op {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]store.Op, len(b.batches))
	copy(out, b.batches)
	return out
}

// slowAsyncStore builds the slow-disk fixture: a FaultStore that
// charges `latency` per durability barrier (per flushed batch).
func slowAsyncStore(t *testing.T, latency time.Duration) (*store.FaultStore, *store.MemStore) {
	t.Helper()
	mem := store.NewMemStore()
	fault := store.NewFaultStore(mem)
	fault.SetLatency(latency)
	return fault, mem
}

// TestReplicatedAckImpliesLocalFsync is the durability-class regression
// test for the async write path: a durability=replicated ack must imply
// the terminal record is already fsynced on the local store — the ack
// may never leapfrog records still sitting in the write-behind queue.
// The disk is made slow enough (100ms per barrier) that an ack which
// skipped the sync barrier would beat the record to disk every time.
func TestReplicatedAckImpliesLocalFsync(t *testing.T) {
	_, follower := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: store.NewMemStore(),
	})
	slow, mem := slowAsyncStore(t, 100*time.Millisecond)
	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: slow,
		ReplicaTargets: []string{follower.URL},
	})

	resp, got := post(t, primary.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "fsync-before-ack"), server.SolveSpec{Durability: server.DurabilityReplicated}))
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
	// The moment the ack is in hand, the terminal record must already be
	// on the (slow) disk — read the innermost store directly, under the
	// fault layer whose latency an unsynced record would still be paying.
	snap, err := mem.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range snap.Jobs {
		if rec.ID == st.ID {
			if !store.Terminal(rec.State) {
				t.Fatalf("acked job persisted as %q — the ack outran the terminal fsync", rec.State)
			}
			return
		}
	}
	t.Fatalf("job %s acked replicated but absent from the local store", st.ID)
}

// TestSlowDiskDoesNotBlockReads pins the other half of the async-path
// contract: with the store 250ms-per-barrier slow and writes pending
// behind it, GET /v1/jobs/{id} answers from memory in milliseconds —
// reads never queue behind an fsync (the old under-lock store write
// path serialized exactly this).
func TestSlowDiskDoesNotBlockReads(t *testing.T) {
	slow, _ := slowAsyncStore(t, 250*time.Millisecond)
	svc, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, Store: slow,
	})
	resp, got := post(t, ts.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "slow-disk-reads"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	// The solve's records are still paying their 250ms barriers: the
	// write-behind window must be visibly non-empty...
	if pending := svc.Stats().StorePending; pending == 0 {
		t.Fatal("StorePending = 0 right after a solve on a 250ms-per-barrier disk")
	}
	// ...and reads must not be stuck behind it.
	start := time.Now()
	gresp, body := get(t, ts.URL+"/v1/jobs/"+st.ID)
	elapsed := time.Since(start)
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d (body %s)", gresp.StatusCode, body)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("GET took %v with writes pending — reads are blocking on the slow disk", elapsed)
	}
}

// TestReplayEvictionFlushesOnce is the regression test for the old
// persist path where a retention sweep fsynced every evicted job
// individually under the server lock: a replay that evicts dozens of
// restored jobs must hand ALL the drops to the store as one batch.
func TestReplayEvictionFlushesOnce(t *testing.T) {
	const seeded, retention = 30, 8
	bs := &batchCountingStore{MemStore: store.NewMemStore()}
	var recs []store.JobRecord
	for i := 0; i < seeded; i++ {
		recs = append(recs, store.JobRecord{
			ID:    "p0-job-" + string(rune('a'+i/10)) + string(rune('a'+i%10)),
			Key:   "key",
			State: store.StateDone,
			Seq:   uint64(i + 1),
		})
	}
	seedJobs(t, bs, recs...)
	bs.mu.Lock()
	bs.batches = nil // forget the seeding writes; count only the server's
	bs.mu.Unlock()

	_, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, Retention: retention, Store: bs,
	})
	wantDrops := seeded - retention
	deletes := func() (total, largestBatch int) {
		for _, batch := range bs.snapshotBatches() {
			n := 0
			for _, op := range batch {
				if op.Kind == store.OpDeleteJob {
					n++
				}
			}
			total += n
			if n > largestBatch {
				largestBatch = n
			}
		}
		return total, largestBatch
	}
	waitFor(t, "the replay eviction sweep to reach the store", func() bool {
		total, _ := deletes()
		return total >= wantDrops
	})
	total, largest := deletes()
	if total != wantDrops {
		t.Fatalf("store saw %d drops, want %d", total, wantDrops)
	}
	if largest != wantDrops {
		t.Fatalf("largest delete batch = %d of %d drops — the sweep split into multiple flushes", largest, wantDrops)
	}
	_ = ts
}

// TestStoreBackpressure429 pins the durability backpressure: when the
// write-behind window hits Config.StoreQueue, submissions shed with a
// 429 whose message names the store (not the job queue), and the server
// recovers once the disk catches up.
func TestStoreBackpressure429(t *testing.T) {
	fault := store.NewFaultStore(store.NewMemStore())
	fault.SetLatency(300 * time.Millisecond)
	_, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, Store: fault, StoreQueue: 1,
	})
	resp, got := post(t, ts.URL+"/v1/jobs",
		submitBody(t, tinyProblemJSON(t, "bp-first"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d (body %s)", resp.StatusCode, got)
	}
	// The first submission's record is paying its 300ms barrier: the
	// window is full, so the next submission must shed.
	resp, got = post(t, ts.URL+"/v1/jobs",
		submitBody(t, tinyProblemJSON(t, "bp-second"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status = %d (body %s), want 429", resp.StatusCode, got)
	}
	if code := errCode(t, got); code != server.CodeQueueFull {
		t.Fatalf("code = %q, want %q", code, server.CodeQueueFull)
	}
	var envelope struct {
		Error server.ErrorPayload `json:"error"`
	}
	if err := json.Unmarshal(got, &envelope); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(envelope.Error.Message, "write-behind") {
		t.Fatalf("429 message %q does not name the store write-behind window", envelope.Error.Message)
	}
	// Once the disk catches up the server admits work again.
	waitFor(t, "the write-behind window to drain", func() bool {
		resp, _ := post(t, ts.URL+"/v1/jobs",
			submitBody(t, tinyProblemJSON(t, "bp-third"), server.SolveSpec{}))
		return resp.StatusCode == http.StatusAccepted
	})
}

// TestCloseDrainsToDisk pins the shutdown contract: once Server.Close
// returns, every record the server decided is in the store, even with
// each flushed batch paying 50ms on a slow disk.
func TestCloseDrainsToDisk(t *testing.T) {
	fs, err := store.OpenConfig(t.TempDir(), store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	slow := store.NewFaultStore(fs)
	slow.SetLatency(50 * time.Millisecond)
	svc, ts := newConfiguredServer(t, server.Config{Pool: 1, QueueSize: 16, CacheSize: 16, Store: slow})
	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, submitE2E(t, ts.URL, submitBody(t, tinyProblemJSON(t, fmt.Sprintf("close-drain-%d", i)), server.SolveSpec{})))
	}
	svc.Close()
	if pending := svc.Stats().StorePending; pending != 0 {
		t.Fatalf("StorePending = %d after Close", pending)
	}

	snap, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	persisted := make(map[string]string)
	for _, rec := range snap.Jobs {
		persisted[rec.ID] = rec.State
	}
	for _, id := range ids {
		st := jobStatusE2E(t, ts.URL, id)
		if !store.Terminal(st.State) || persisted[id] != st.State {
			t.Fatalf("job %s: server decided %q, store holds %q after Close", id, st.State, persisted[id])
		}
	}
}

// TestWALOrderIsOutboxOrder pins the FIFO contract under concurrent
// submitters: the WAL holds job records in exactly the order the server
// decided them under its lock. Two per-record counters taken in that
// lock show it: the ID highwater (Minted) never decreases along the
// WAL, and terminal Seqs strictly increase. Each submitter's jobs also
// reach the WAL in its submission order, queued before terminal.
func TestWALOrderIsOutboxOrder(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	svc, ts := newConfiguredServer(t, server.Config{Pool: 2, QueueSize: 64, CacheSize: 64, Store: fs})

	const submitters, perSubmitter = 4, 8
	submitted := make([][]string, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				body := submitBody(t, tinyProblemJSON(t, fmt.Sprintf("fifo-%d-%d", g, i)), server.SolveSpec{})
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var st server.JobStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit %d/%d: status %d, err %v", g, i, resp.StatusCode, err)
					return
				}
				submitted[g] = append(submitted[g], st.ID)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, ids := range submitted {
		for _, id := range ids {
			waitState(t, ts.URL, id, server.StateDone)
		}
	}
	svc.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var wal []store.JobRecord
	for _, seg := range segs { // zero-padded names: lexical order is WAL order
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var op struct {
				Op  string           `json:"op"`
				Job *store.JobRecord `json:"job"`
			}
			if err := json.Unmarshal(line, &op); err != nil {
				t.Fatalf("wal line %q: %v", line, err)
			}
			if op.Op == string(store.OpPutJob) {
				wal = append(wal, *op.Job)
			}
		}
	}
	if want := 2 * submitters * perSubmitter; len(wal) != want {
		t.Fatalf("wal holds %d job records, want %d (queued + done per job)", len(wal), want)
	}
	var minted, seq uint64
	first := make(map[string]int) // ID -> WAL index of its first record
	for i, rec := range wal {
		if rec.Minted < minted {
			t.Fatalf("wal record %d (%s) minted %d after %d: out of outbox order", i, rec.ID, rec.Minted, minted)
		}
		minted = rec.Minted
		if store.Terminal(rec.State) {
			if rec.Seq <= seq {
				t.Fatalf("wal record %d (%s) seq %d after %d: out of outbox order", i, rec.ID, rec.Seq, seq)
			}
			seq = rec.Seq
			if _, ok := first[rec.ID]; !ok {
				t.Fatalf("job %s reached the wal terminal before queued", rec.ID)
			}
		} else if _, ok := first[rec.ID]; !ok {
			first[rec.ID] = i
		}
	}
	for g, ids := range submitted {
		for i := 1; i < len(ids); i++ {
			if first[ids[i]] <= first[ids[i-1]] {
				t.Fatalf("submitter %d: %s reached the wal before %s", g, ids[i], ids[i-1])
			}
		}
	}
}
