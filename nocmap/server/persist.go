package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/nocmap"
	"repro/nocmap/store"
)

// jobOp flattens a job into the op that puts its record, the form the
// store, replication and GET /v1/records all take. Terminal records
// carry the outcome but drop the problem and spec — replay never
// re-runs them, and the terminal put overwrites the queued record, so
// keeping them would only re-write the full canonical problem JSON
// into the WAL a second time. Callers hold s.mu.
func (s *Server) jobOp(j *job) store.Op {
	rec := &store.JobRecord{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		Result:    j.result,
		Seq:       j.seq,
		Minted:    s.nextID, // ID-counter highwater; see store.JobRecord.Minted
	}
	if j.errPay != nil {
		if raw, err := json.Marshal(j.errPay); err == nil {
			rec.Error = raw
		}
	}
	if !store.Terminal(j.state) {
		rec.Problem = j.canon
		if raw, err := marshalSpec(j.spec); err == nil {
			rec.Spec = raw
		}
	}
	return store.Op{Kind: store.OpPutJob, Rec: rec}
}

// persistJob mirrors a job's current state everywhere it needs to
// survive: the persistence outbox toward the local store (if one is
// configured; flusher-side failures are counted, not fatal — the server
// keeps serving with best-effort durability) and, when the record
// replicates, the ring successor's replica namespace (if a replication
// target is set; the push is async, from memory, so store faults cannot
// poison it). Neither path blocks: the record becomes durable when the
// flusher's batch carrying it is fsynced, which is what syncStore and
// the durability classes wait on. Both share one op: neither writes to
// its record. Callers hold s.mu.
func (s *Server) persistJob(j *job) {
	op := s.jobOp(j)
	s.enqueueOpLocked(op)
	if j.replicates() {
		s.rep.enqueue(op)
	}
}

// replicates reports whether the job's current record goes to the
// replication targets: an outcome always does, and a live record does
// unless the job is a synchronous solve. A sync solve's client learns
// its ID only with the outcome, so a promoted live replica of it could
// only re-run work nobody can ask for (the router retries the body on
// the successor instead), and its sync ack waits for the terminal
// record. A recovered or adopted live job ships: a client may hold its
// ID. The local store gets every record either way. Callers hold s.mu.
func (j *job) replicates() bool {
	return j.finished || !j.syncSolve
}

// persistCachePut mirrors a result-cache insert into the store. With
// caching disabled the in-memory LRU holds nothing and would never
// evict, so persisting would grow the store's cache section without
// bound — skip it entirely. Callers hold s.mu.
func (s *Server) persistCachePut(key string, result json.RawMessage) {
	if s.cfg.Store == nil || s.cache.cap <= 0 {
		return
	}
	s.enqueueOpLocked(store.Op{Kind: store.OpPutCache, Key: key, Result: result})
}

// dropPersistedJob forgets a retention-evicted job in the store, so a
// replay cannot resurrect what the live server already let go — and
// pushes the same deletion to the follower, so a promotion cannot
// either. The delete rides the outbox: a retention sweep that evicts
// dozens of jobs in one critical section lands as one batched flush,
// not dozens of fsyncs. Callers hold s.mu.
func (s *Server) dropPersistedJob(id string) {
	op := store.Op{Kind: store.OpDeleteJob, ID: id}
	s.enqueueOpLocked(op)
	s.rep.enqueue(op)
}

// dropReplicaLocked forgets one replica record (memory and store) and
// reports whether there was one. Callers hold s.mu.
func (s *Server) dropReplicaLocked(id string) bool {
	if _, ok := s.replicas[id]; !ok {
		return false
	}
	delete(s.replicas, id)
	delete(s.replicaDirty, id)
	s.enqueueOpLocked(store.Op{Kind: store.OpDeleteReplica, ID: id})
	return true
}

// replay loads the configured store and rebuilds the pre-restart world:
// terminal jobs become queryable history (byte-identical results, in
// terminal-transition order so retention agrees with the live server's
// eviction order), the result cache is re-warmed, and queued/running
// jobs are re-enqueued — or answered straight from the restored cache.
// It runs from New, before the workers start.
func (s *Server) replay() error {
	snap, err := s.cfg.Store.Load()
	if err != nil {
		return fmt.Errorf("server: loading job store: %w", err)
	}
	compactRecords(snap.Jobs)
	compactCache(snap.Cache)
	compactRecords(snap.Replicas)
	s.mu.Lock()
	defer s.mu.Unlock()

	var terminal, live []store.JobRecord
	for _, rec := range snap.Jobs {
		if rec.ID == "" {
			continue
		}
		s.bumpNextID(rec.ID)
		if rec.Minted > s.nextID {
			// The persisted highwater covers IDs whose own records
			// retention already deleted.
			s.nextID = rec.Minted
		}
		if store.Terminal(rec.State) {
			terminal = append(terminal, rec)
		} else {
			live = append(live, rec)
		}
	}

	// Terminal history replays in terminal-transition order — the order
	// the live server evicted by — never submission/insertion order.
	sort.SliceStable(terminal, func(i, k int) bool { return terminal[i].Seq < terminal[k].Seq })
	// The one place a job finishes outside finishLocked: a restored
	// outcome keeps its stored seq (follower watermarks compare seqs)
	// and is already persisted.
	for _, rec := range terminal {
		j := newJob(rec.Key, nil, nil, SolveSpec{})
		j.id, j.seq = rec.ID, rec.Seq
		j.cacheHit, j.coalesced = rec.CacheHit, rec.Coalesced
		j.state, j.result, j.errPay = rec.State, rec.Result, errorOf(rec)
		j.finished = true
		j.cancel()
		close(j.done)
		s.jobs[j.id] = j
		s.doneOrder = append(s.doneOrder, j.id)
		if rec.Seq > s.termSeq {
			s.termSeq = rec.Seq
		}
		s.stats.Restored++
	}

	// The replica namespace — other backends' records replicated here —
	// survives the restart: a follower reboot must not lose what its
	// primaries entrusted to it. The acked watermark per origin is
	// recomputed from what actually survived, so a restart that lost
	// unflushed replicas reports the regression honestly and the
	// primaries re-send from there.
	for _, rec := range snap.Replicas {
		if rec.ID == "" {
			continue
		}
		s.replicas[rec.ID] = rec
		if store.Terminal(rec.State) && rec.Seq > s.replicaHigh[rec.Origin] {
			s.replicaHigh[rec.Origin] = rec.Seq
		}
	}

	// Apply retention to the restored history exactly as the live server
	// would have — after the replicas are loaded, so an evicted promoted
	// job loses its replica record too. The drops ride the outbox, so a
	// replay that evicts dozens of jobs at once (a shrunk Retention, an
	// over-full store) flushes them as one batch instead of one fsync
	// each.
	s.evictBeyondRetentionLocked()

	// The persisted cache re-warms the LRU before any live job looks at
	// it, oldest entry first so recency is preserved.
	for _, entry := range snap.Cache {
		s.cache.add(entry.Key, entry.Result)
	}

	// Interrupted jobs: re-answer from the restored cache when possible,
	// otherwise re-enqueue (coalescing duplicates back together).
	for _, rec := range live {
		s.stats.Recovered++
		s.recoverLive(rec)
	}
	return nil
}

// errorOf decodes a record's persisted error payload; nil when the
// record carries none.
func errorOf(rec store.JobRecord) *ErrorPayload {
	if len(rec.Error) == 0 {
		return nil
	}
	var pay ErrorPayload
	if json.Unmarshal(rec.Error, &pay) != nil {
		return nil
	}
	return &pay
}

// recoverLive re-admits one interrupted job under its original ID.
// Callers hold s.mu.
func (s *Server) recoverLive(rec store.JobRecord) {
	j := newJob("", nil, rec.Problem, SolveSpec{})
	j.id = rec.ID
	s.jobs[j.id] = j

	fail := func(err error) {
		s.finishLocked(j, StateFailed, nil, errorPayload(err), &s.stats.Failed)
	}
	var p nocmap.Problem
	if err := json.Unmarshal(rec.Problem, &p); err != nil {
		fail(fmt.Errorf("replaying job %s: %w", rec.ID, err))
		return
	}
	var spec SolveSpec
	if len(rec.Spec) > 0 {
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			fail(fmt.Errorf("replaying job %s options: %w", rec.ID, err))
			return
		}
	}
	spec, err := spec.normalize() // the registry may have changed across the restart
	if err != nil {
		fail(err)
		return
	}
	j.problem = &p
	j.spec = spec
	j.key = JobKey(rec.Problem, spec) // recompute: guards against hash drift
	cached, leader := s.placeLocked(j.key)
	s.admitLocked(j, cached, leader)
}

// bumpNextID keeps minted IDs ahead of every replayed one with our
// prefix, so a restarted server never reissues an ID.
func (s *Server) bumpNextID(id string) {
	rest, ok := strings.CutPrefix(id, s.cfg.IDPrefix)
	if !ok {
		return
	}
	rest, ok = strings.CutPrefix(rest, "job-")
	if !ok {
		return
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return
	}
	if n > s.nextID {
		s.nextID = n
	}
}
