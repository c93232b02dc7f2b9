package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/nocmap/store"
)

// Ring replication: every job record (and every terminal result) is
// asynchronously pushed from its owning backend to its replication
// target set — the backend's first R ring successors, the followers —
// over POST /v1/replicate. Each follower keeps the records in its job
// store's replica namespace, apart from its own jobs, so replication
// survives follower restarts too. When the shard router declares the
// primary down it promotes the surviving follower with the highest
// applied terminal seq: terminal replicas are installed as queryable
// local jobs (answering byte-identical to the lost primary, flags
// included) and live replicas re-run under their original IDs. When the
// primary rejoins, the router runs an anti-entropy sweep — every
// holder's outcomes for the primary's jobs are pushed back over
// POST /v1/reconcile, where terminal-beats-live reconciliation adopts
// them.
//
// Each follower acknowledges batches with its applied high terminal seq
// (the acked watermark); the primary tracks the watermark per target,
// exposes the resulting replication lag (Stats.ReplicationLag), and —
// when a follower's reported watermark regresses, the signature of a
// follower restarted from a younger store — re-seeds every record above
// it, so the stream self-heals without a target change.

// ReplicateRequest is the body of POST /v1/replicate: a batch of job
// records from one origin, plus IDs whose records the origin's
// retention evicted (deletes must replicate too, or promotion could
// resurrect a job the primary already let go). Application is
// idempotent per record: a replica already terminal is only overwritten
// by a record with a strictly higher terminal seq from the same origin.
type ReplicateRequest struct {
	// Origin is the sender's job-ID prefix; promotion selects replicas
	// to adopt by it.
	Origin  string            `json:"origin"`
	Records []store.JobRecord `json:"records,omitempty"`
	Deletes []string          `json:"deletes,omitempty"`
}

// ReplicateResponse reports how many batch entries were applied
// (idempotent re-deliveries are skipped, not errors) and the follower's
// acked watermark for the origin: the highest terminal seq it has both
// applied and durably persisted. A store write failure holds the
// watermark back — the follower never vouches for durability it does
// not have — and a reported watermark below what the primary already
// saw acked means the follower restarted from a younger store, which
// makes the primary re-send everything above it.
type ReplicateResponse struct {
	Applied int    `json:"applied"`
	HighSeq uint64 `json:"high_seq"`
}

// ReconcileRequest is the body of POST /v1/reconcile: job records (and
// warm cache entries) this instance should adopt. Anti-entropy after a
// failover and join/leave key-range migration both ride it. Adoption is
// terminal-beats-live: a terminal incoming record overrides a local
// queued/running job with the same ID (the local run is cancelled and
// the replicated outcome installed byte-identical); a terminal local
// job is never overwritten; a live incoming record for an unknown ID is
// re-enqueued under its original ID.
type ReconcileRequest struct {
	Records []store.JobRecord  `json:"records,omitempty"`
	Cache   []store.CacheEntry `json:"cache,omitempty"`
}

// ReconcileResponse reports how many records and cache entries were
// adopted.
type ReconcileResponse struct {
	Applied int `json:"applied"`
}

// PromoteRequest is the body of POST /v1/promote: adopt every replica
// held for the (presumed dead) origin. Idempotent — replicas whose IDs
// already exist locally are skipped.
type PromoteRequest struct {
	Origin string `json:"origin"`
}

// PromoteResponse reports how many replicas were promoted.
type PromoteResponse struct {
	Promoted int `json:"promoted"`
}

// RecordsResponse is the GET /v1/records answer: this instance's own
// job records (optionally filtered by ID prefix) plus its result-cache
// entries — the transfer format for anti-entropy sweeps and key-range
// migration.
type RecordsResponse struct {
	Records []store.JobRecord  `json:"records"`
	Cache   []store.CacheEntry `json:"cache,omitempty"`
}

// WatermarkResponse is the GET /v1/replication/watermark answer: this
// instance's acked watermark for one origin — the highest terminal seq
// it holds durably in its replica namespace — plus how many of that
// origin's replicas it carries. The shard router compares watermarks
// across a dead backend's followers to promote the most complete
// holder.
type WatermarkResponse struct {
	Origin   string `json:"origin"`
	HighSeq  uint64 `json:"high_seq"`
	Replicas int    `json:"replicas"`
}

// ReplicationTarget is the body (and response) of
// PUT /v1/replication/target: the base URLs of this instance's
// replication target set — its first R ring successors. The shard
// router pushes the set on startup and on every ring change; an empty
// set turns replication off. Every target added by a push gets the full
// job state reseeded so the new follower converges. A body with any
// other field is rejected, so a misspelled key can never read as the
// empty set.
type ReplicationTarget struct {
	URLs []string `json:"urls,omitempty"`
}

// ReplicaTargetStats is one replication stream's slice of Stats: the
// target URL, how many ops it acknowledged, its acked watermark, the
// resulting lag against the primary's terminal seq, queue depth, and
// the stall state (consecutive failed pushes past the threshold).
type ReplicaTargetStats struct {
	URL       string `json:"url"`
	Acked     uint64 `json:"acked"`
	Watermark uint64 `json:"watermark"`
	Lag       uint64 `json:"lag"`
	Pending   int    `json:"pending"`
	Fails     int    `json:"fails,omitempty"`
	Stalled   bool   `json:"stalled,omitempty"`
}

// repAck identifies one acknowledged push for the sync-ack durability
// path: the job ID plus whether the acked record was terminal.
type repAck struct {
	id       string
	terminal bool
}

// replicatorHooks are the server callbacks a stream fires from its push
// goroutine (never while holding stream locks, so the server may take
// its own mutex and re-enqueue freely).
type replicatorHooks struct {
	// onAck fires after a follower acknowledged a batch: the durability
	// classes resolve held submission acks here.
	onAck func(target string, acks []repAck)
	// onRegress fires when a follower's reported watermark dropped below
	// what it had acked before — a follower restart. The server re-seeds
	// every record above fromSeq to that target.
	onRegress func(target string, fromSeq uint64)
}

// replicator asynchronously pushes job records to the replication
// target set, one independent stream per target. Each stream holds at
// most one pending operation per job ID (the latest state wins), so its
// queue is bounded by the server's own job population — retention plus
// the queue — no matter how long the follower stays unreachable. Failed
// batches are retried with capped exponential backoff plus jitter; a
// stream past replicateStallAfter consecutive failures is stalled —
// surfaced on /healthz and counted — until a push succeeds again.
type replicator struct {
	origin string
	httpc  *http.Client
	hooks  replicatorHooks

	mu      sync.Mutex
	streams map[string]*repStream
	closed  bool
}

// repStream is one target's queue and push loop.
type repStream struct {
	r      *replicator
	target string

	mu       sync.Mutex
	cond     *sync.Cond
	pending  map[string]repOp
	order    []string
	inflight int // ops in the batch being pushed right now
	closed   chan struct{}

	acked         uint64 // records+deletes this follower acknowledged
	watermark     uint64 // follower-reported applied high terminal seq
	haveWatermark bool
	fails         int // consecutive failed pushes
	stalled       bool
	stalls        uint64 // stall episodes
}

type repOp struct {
	rec store.JobRecord
	del bool
}

const (
	replicateBatch      = 64
	replicateMinBackoff = 100 * time.Millisecond
	replicateMaxBackoff = 5 * time.Second
	// replicateStallAfter is how many consecutive failed pushes flip a
	// stream to stalled: /healthz reports degraded with a
	// replication_stalled detail and Stats.ReplicationStalls counts the
	// episode, instead of the stream retrying forever silently.
	replicateStallAfter = 5
)

func newReplicator(origin string, hooks replicatorHooks) *replicator {
	return &replicator{
		origin:  origin,
		httpc:   &http.Client{Timeout: 30 * time.Second},
		hooks:   hooks,
		streams: make(map[string]*repStream),
	}
}

// setTargets points the replicator at a new target set, starting a
// stream per added target and stopping removed ones (their pending ops
// drop — the target is no longer a follower). It returns the added
// targets; the server reseeds its full state to each.
func (r *replicator) setTargets(urls []string) (added []string) {
	want := make(map[string]bool, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(u, "/")
		if u != "" {
			want[u] = true
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	for target, st := range r.streams {
		if !want[target] {
			st.close()
			delete(r.streams, target)
		}
	}
	for target := range want {
		if _, ok := r.streams[target]; ok {
			continue
		}
		r.streams[target] = newRepStream(r, target)
		added = append(added, target)
	}
	return added
}

// targets returns the current target URLs (unordered).
func (r *replicator) targets() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.streams))
	for t := range r.streams {
		out = append(out, t)
	}
	return out
}

// hasTargets reports whether any replication stream exists — the
// precondition for a replicated-durability ack ever resolving.
func (r *replicator) hasTargets() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.streams) > 0
}

// enqueue schedules one record push to every target, superseding any
// pending op for the same ID.
func (r *replicator) enqueue(rec store.JobRecord) { r.fan(rec.ID, repOp{rec: rec}) }

// enqueueDelete schedules a deletion push to every target.
func (r *replicator) enqueueDelete(id string) { r.fan(id, repOp{del: true}) }

func (r *replicator) fan(id string, op repOp) {
	r.mu.Lock()
	streams := make([]*repStream, 0, len(r.streams))
	for _, st := range r.streams {
		streams = append(streams, st)
	}
	r.mu.Unlock()
	// No targets: drop rather than queue without bound. Adding a target
	// later reseeds the full state, so nothing is lost.
	for _, st := range streams {
		st.add(id, op)
	}
}

// enqueueTo schedules one record push to a single target — the re-seed
// path after that follower's watermark regressed.
func (r *replicator) enqueueTo(target string, rec store.JobRecord) {
	r.mu.Lock()
	st := r.streams[strings.TrimRight(target, "/")]
	r.mu.Unlock()
	if st != nil {
		st.add(rec.ID, repOp{rec: rec})
	}
}

// targetStats snapshots every stream, computing each lag against the
// primary's current terminal seq.
func (r *replicator) targetStats(termSeq uint64) []ReplicaTargetStats {
	r.mu.Lock()
	streams := make([]*repStream, 0, len(r.streams))
	for _, st := range r.streams {
		streams = append(streams, st)
	}
	r.mu.Unlock()
	out := make([]ReplicaTargetStats, 0, len(streams))
	for _, st := range streams {
		st.mu.Lock()
		ts := ReplicaTargetStats{
			URL:       st.target,
			Acked:     st.acked,
			Watermark: st.watermark,
			Pending:   len(st.order) + st.inflight,
			Fails:     st.fails,
			Stalled:   st.stalled,
		}
		st.mu.Unlock()
		if termSeq > ts.Watermark {
			ts.Lag = termSeq - ts.Watermark
		}
		out = append(out, ts)
	}
	return out
}

// stallCount sums stall episodes across streams (current and past).
func (r *replicator) stallCount() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, st := range r.streams {
		st.mu.Lock()
		n += st.stalls
		st.mu.Unlock()
	}
	return n
}

// anyStalled reports whether any stream is currently stalled.
func (r *replicator) anyStalled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.streams {
		st.mu.Lock()
		stalled := st.stalled
		st.mu.Unlock()
		if stalled {
			return true
		}
	}
	return false
}

// close stops every stream; pending ops are dropped (replication is
// best-effort async — boot reseeding converges the followers later).
func (r *replicator) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for target, st := range r.streams {
		st.close()
		delete(r.streams, target)
	}
}

func newRepStream(r *replicator, target string) *repStream {
	st := &repStream{
		r:       r,
		target:  target,
		pending: make(map[string]repOp),
		closed:  make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	go st.loop()
	return st
}

func (st *repStream) add(id string, op repOp) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.isClosed() {
		return
	}
	if _, ok := st.pending[id]; !ok {
		st.order = append(st.order, id)
	}
	st.pending[id] = op
	st.cond.Signal()
}

func (st *repStream) close() {
	st.mu.Lock()
	select {
	case <-st.closed:
	default:
		close(st.closed)
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

func (st *repStream) isClosed() bool {
	select {
	case <-st.closed:
		return true
	default:
		return false
	}
}

func (st *repStream) loop() {
	backoff := replicateMinBackoff
	for {
		st.mu.Lock()
		for len(st.order) == 0 && !st.isClosed() {
			st.cond.Wait()
		}
		if st.isClosed() {
			st.mu.Unlock()
			return
		}
		n := len(st.order)
		if n > replicateBatch {
			n = replicateBatch
		}
		ids := st.order[:n]
		req := ReplicateRequest{Origin: st.r.origin}
		batch := make([]repOp, 0, n)
		acks := make([]repAck, 0, n)
		for _, id := range ids {
			op := st.pending[id]
			batch = append(batch, op)
			delete(st.pending, id)
			if op.del {
				req.Deletes = append(req.Deletes, id)
				acks = append(acks, repAck{id: id, terminal: true})
			} else {
				req.Records = append(req.Records, op.rec)
				acks = append(acks, repAck{id: id, terminal: store.Terminal(op.rec.State)})
			}
		}
		st.order = append([]string(nil), st.order[n:]...)
		st.inflight = n
		st.mu.Unlock()

		resp, err := st.send(req)
		if err != nil {
			// Put the batch back at the front, in its own order, so it is
			// retried first (an op a newer one superseded while in flight
			// stays superseded, in the newer op's place); note the failure
			// for stall detection, and back off before the next attempt.
			st.mu.Lock()
			st.inflight = 0
			back := make([]string, 0, len(st.order)+n)
			for i, id := range ids {
				if _, ok := st.pending[id]; !ok {
					st.pending[id] = batch[i]
					back = append(back, id)
				}
			}
			st.order = append(back, st.order...)
			st.fails++
			if st.fails == replicateStallAfter {
				st.stalled = true
				st.stalls++
			}
			st.mu.Unlock()
			sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff)/2+1)) // jitter: [b/2, b)
			backoff *= 2
			if backoff > replicateMaxBackoff {
				backoff = replicateMaxBackoff
			}
			select {
			case <-st.closed:
				return
			case <-time.After(sleep):
			}
			continue
		}
		backoff = replicateMinBackoff
		st.mu.Lock()
		st.inflight = 0
		st.acked += uint64(n)
		st.fails = 0
		st.stalled = false
		regressed := st.haveWatermark && resp.HighSeq < st.watermark
		fromSeq := resp.HighSeq
		st.watermark = resp.HighSeq
		st.haveWatermark = true
		st.mu.Unlock()
		if regressed && st.r.hooks.onRegress != nil {
			st.r.hooks.onRegress(st.target, fromSeq)
		}
		if st.r.hooks.onAck != nil {
			st.r.hooks.onAck(st.target, acks)
		}
	}
}

func (st *repStream) send(req ReplicateRequest) (*ReplicateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequest(http.MethodPost, st.target+"/v1/replicate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := st.r.httpc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("replicate: follower answered HTTP %d", resp.StatusCode)
	}
	var out ReplicateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SetReplicaTargets points this instance's replication fan-out at the
// given follower base URLs (empty: off). Every target added gets the
// full job state reseeded so the new follower converges — the same
// sweep a reboot performs, which is what makes replication self-healing
// (anti-entropy) rather than purely incremental.
func (s *Server) SetReplicaTargets(urls []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, target := range s.rep.setTargets(urls) {
		s.seedReplicationToLocked(target)
	}
}

// seedReplicationToLocked enqueues every current job record to one
// target, converging that follower's replica namespace with our state.
// Callers hold s.mu.
func (s *Server) seedReplicationToLocked(target string) {
	for _, j := range s.jobsBySeqLocked() {
		s.rep.enqueueTo(target, s.recordOf(j, j.seq))
	}
}

// jobsBySeqLocked lists s.jobs in (seq, ID) order: live jobs (seq 0)
// by ID, then finished ones in the order they finished. Every record
// set that leaves this backend goes out in this order, never map
// order, so the seqs a receiver mints for them and what its retention
// evicts do not change from run to run. Callers hold s.mu.
func (s *Server) jobsBySeqLocked() []*job {
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	slices.SortFunc(js, func(a, b *job) int {
		return cmp.Or(cmp.Compare(a.seq, b.seq), strings.Compare(a.id, b.id))
	})
	return js
}

// reseedAbove re-sends to one target every record a watermark
// regression proved it lost: terminal records above fromSeq plus every
// live job (live records carry seq 0, so a restarted follower always
// needs them again). Runs from the stream's push goroutine via the
// onRegress hook.
func (s *Server) reseedAbove(target string, fromSeq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobsBySeqLocked() {
		if j.seq > fromSeq || !j.finished {
			s.rep.enqueueTo(target, s.recordOf(j, j.seq))
		}
	}
}

// handleReplicate is POST /v1/replicate — the follower half of ring
// replication. Idempotent by job ID + terminal seq: re-delivered
// batches re-apply harmlessly, and a stale record can never roll a
// replica's terminal state back. The response carries the acked
// watermark: the origin's highest terminal seq this follower holds
// durably. Store writes ride the async outbox, so the handler applies
// the batch to memory under mu, then waits OUTSIDE the lock for the
// flusher to fsync the batch (syncStore) before advancing the
// watermark — the follower never vouches for a record that is still
// sitting in the outbox, and a failed write (surfaced via
// storeOpFailed marking the record dirty) holds the whole origin's
// advance back until a later batch heals it.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req ReplicateRequest
	if !decodeInternal(w, r, &req) {
		return
	}
	compactRecords(req.Records)
	s.mu.Lock()
	applied := 0
	// touched collects every ID this request may vouch for; their
	// durable seqs are re-read from memory after the store settles.
	touched := make([]string, 0, len(req.Records))
	for _, rec := range req.Records {
		if rec.ID == "" {
			continue
		}
		if existing, ok := s.replicas[rec.ID]; ok &&
			store.Terminal(existing.State) && rec.Seq <= existing.Seq {
			// Idempotent re-delivery or stale state: the record we already
			// hold vouches (unless dirty), nothing to re-persist.
			touched = append(touched, rec.ID)
			continue
		}
		rec.Origin = req.Origin
		s.replicas[rec.ID] = rec
		if s.cfg.Store != nil {
			// Clear the dirty mark optimistically: if this write fails
			// too, storeOpFailed re-marks it before syncStore returns.
			delete(s.replicaDirty, rec.ID)
			rc := rec
			s.enqueueOpLocked(store.Op{Kind: store.OpPutReplica, Rec: &rc})
		}
		touched = append(touched, rec.ID)
		applied++
	}
	for _, id := range req.Deletes {
		if _, ok := s.replicas[id]; !ok {
			continue
		}
		delete(s.replicas, id)
		delete(s.replicaDirty, id)
		s.enqueueOpLocked(store.Op{Kind: store.OpDeleteReplica, ID: id})
		applied++
	}
	// Dirty replicas — applied in memory but refused by the store on an
	// earlier request — get their persist retried on every subsequent
	// batch, so a transient store fault heals without waiting for a
	// restart or a reconcile sweep.
	if s.cfg.Store != nil {
		for id := range s.replicaDirty {
			rec, ok := s.replicas[id]
			if !ok || rec.Origin != req.Origin {
				continue
			}
			delete(s.replicaDirty, id) // re-marked by storeOpFailed on failure
			rc := rec
			s.enqueueOpLocked(store.Op{Kind: store.OpPutReplica, Rec: &rc})
			touched = append(touched, id)
		}
	}
	ticket := s.outSeq
	s.mu.Unlock()

	// The durability barrier, outside the lock: everything this batch
	// enqueued must be on disk before the watermark may vouch for it.
	syncErr := s.syncStore(r.Context(), ticket)

	s.mu.Lock()
	persistFailed := syncErr != nil
	// Conservative watermark: any still-dirty replica for this origin —
	// from this batch or an earlier one — keeps the watermark where it
	// was, so a lost earlier record can never hide behind a later one
	// that made it to disk.
	for id := range s.replicaDirty {
		if rec, ok := s.replicas[id]; ok && rec.Origin == req.Origin {
			persistFailed = true
			break
		}
	}
	var maxSeq uint64
	for _, id := range touched {
		rec, ok := s.replicas[id]
		if !ok || s.replicaDirty[id] || rec.Origin != req.Origin {
			continue
		}
		if store.Terminal(rec.State) && rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	if !persistFailed && maxSeq > s.replicaHigh[req.Origin] {
		s.replicaHigh[req.Origin] = maxSeq
	}
	resp := ReplicateResponse{Applied: applied, HighSeq: s.replicaHigh[req.Origin]}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleWatermark is GET /v1/replication/watermark?origin=p0-: the
// acked watermark this follower holds for one origin, plus its replica
// count. The shard router promotes the holder with the highest
// watermark (replica count breaks ties — live-only histories never
// advance the watermark).
func (s *Server) handleWatermark(w http.ResponseWriter, r *http.Request) {
	origin := r.URL.Query().Get("origin")
	s.mu.Lock()
	resp := WatermarkResponse{Origin: origin, HighSeq: s.replicaHigh[origin]}
	for _, rec := range s.replicas {
		if rec.Origin == origin {
			resp.Replicas++
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handlePromote is POST /v1/promote: failover promotion of the replica
// namespace. Terminal replicas become queryable local jobs answering
// byte-identical to the lost primary; live replicas re-run under their
// original IDs. Idempotent — IDs that already exist locally are
// skipped, so the router may re-trigger promotion freely.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if !decodeInternal(w, r, &req) {
		return
	}
	s.mu.Lock()
	// Install in the origin's own (Seq, ID) order, never map order: the
	// terminal seqs minted here, the queue order of live jobs and the
	// LRU warm order must not change from run to run.
	var recs []store.JobRecord
	for _, rec := range s.replicas {
		if rec.Origin != req.Origin {
			continue
		}
		if _, ok := s.jobs[rec.ID]; ok {
			continue // already promoted (or adopted via reconcile)
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, k int) bool {
		if recs[i].Seq != recs[k].Seq {
			return recs[i].Seq < recs[k].Seq
		}
		return recs[i].ID < recs[k].ID
	})
	promoted := 0
	for _, rec := range recs {
		if store.Terminal(rec.State) {
			s.installTerminalLocked(rec)
		} else {
			s.recoverLive(rec)
		}
		s.stats.Promoted++
		promoted++
	}
	s.cond.Broadcast() // promoted live jobs joined the queue
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, PromoteResponse{Promoted: promoted})
}

// installTerminalLocked installs a foreign terminal record as a local
// finished job: byte-identical status (state, flags, result, error)
// under the original ID, enrolled in retention and persisted like any
// local job. Clean results also warm the local result cache, so future
// submissions of the same key served here hit immediately. Callers
// hold s.mu.
func (s *Server) installTerminalLocked(rec store.JobRecord) {
	j := finishedJob(rec)
	s.jobs[j.id] = j
	s.termSeq++
	j.seq = s.termSeq
	s.persistJob(j)
	s.retainLocked(j)
	if rec.State == StateDone && rec.Key != "" && len(rec.Result) > 0 {
		s.cache.add(rec.Key, rec.Result)
		s.persistCachePut(rec.Key, rec.Result)
	}
}

// handleReconcile is POST /v1/reconcile: adopt records pushed by the
// router — the anti-entropy sweep back onto a rejoined primary, or a
// key-range migration during elastic join/leave.
func (s *Server) handleReconcile(w http.ResponseWriter, r *http.Request) {
	var req ReconcileRequest
	if !decodeInternal(w, r, &req) {
		return
	}
	compactRecords(req.Records)
	compactCache(req.Cache)
	s.mu.Lock()
	applied := 0
	for _, rec := range req.Records {
		if rec.ID == "" {
			continue
		}
		if s.adoptRecordLocked(rec) {
			s.stats.Reconciled++
			applied++
		}
	}
	for _, entry := range req.Cache {
		if entry.Key == "" {
			continue
		}
		if _, ok := s.cache.get(entry.Key); ok {
			continue
		}
		s.cache.add(entry.Key, entry.Result)
		s.persistCachePut(entry.Key, entry.Result)
		applied++
	}
	s.cond.Broadcast() // adopted live jobs joined the queue
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, ReconcileResponse{Applied: applied})
}

// adoptRecordLocked folds one reconciled record into local state using
// terminal-beats-live. It reports whether anything changed. Callers
// hold s.mu.
func (s *Server) adoptRecordLocked(rec store.JobRecord) bool {
	local, ok := s.jobs[rec.ID]
	switch {
	case ok && local.finished:
		return false // a terminal local job is never overwritten
	case ok && store.Terminal(rec.State):
		// A live local job (queued or running) adopts the replicated
		// outcome: the re-run is cancelled and the terminal state —
		// byte-identical to what the follower answered — installed.
		if local.state == StateQueued {
			for i, q := range s.queue {
				if q == local {
					s.queue = append(s.queue[:i], s.queue[i+1:]...)
					break
				}
			}
		}
		s.finishWithLocked(local, rec.State, rec.Result, errorOf(rec), false)
		if rec.State == StateDone && rec.Key != "" && len(rec.Result) > 0 {
			s.cache.add(rec.Key, rec.Result)
			s.persistCachePut(rec.Key, rec.Result)
		}
		return true
	case ok:
		return false // both live: our own run will finish it
	case store.Terminal(rec.State):
		s.installTerminalLocked(rec)
		return true
	default:
		s.recoverLive(rec) // a migrated live job re-runs here
		return true
	}
}

// handleRecords is GET /v1/records[?prefix=s0-]: this instance's job
// records plus its cache entries, the transfer format reconcile
// consumes on the other end.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	s.mu.Lock()
	resp := RecordsResponse{Records: []store.JobRecord{}}
	for _, j := range s.jobsBySeqLocked() {
		if prefix != "" && !strings.HasPrefix(j.id, prefix) {
			continue
		}
		resp.Records = append(resp.Records, s.recordOf(j, j.seq))
	}
	resp.Cache = s.cache.entries()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleReplicaStatus is GET /v1/replicas/{id}: the replica namespace
// read path — a JobStatus built from the replicated record, available
// even before promotion installs it as a local job.
func (s *Server) handleReplicaStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rec, ok := s.replicas[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound,
			&ErrorPayload{Code: CodeNotFound, Message: fmt.Sprintf("no replica %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, JobStatus{
		ID:        rec.ID,
		Key:       rec.Key,
		State:     rec.State,
		CacheHit:  rec.CacheHit,
		Coalesced: rec.Coalesced,
		Error:     errorOf(rec),
		Result:    rec.Result,
	})
}

// handleReplicationTarget is PUT /v1/replication/target: the control
// plane (the shard router, or an operator's curl) pointing this
// instance at its replication target set.
func (s *Server) handleReplicationTarget(w http.ResponseWriter, r *http.Request) {
	var req ReplicationTarget
	if !decodeInternal(w, r, &req) {
		return
	}
	for _, u := range req.URLs {
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			writeError(w, http.StatusBadRequest, &ErrorPayload{
				Code: CodeBadRequest, Message: fmt.Sprintf("replica target %q is not an http(s) URL", u)})
			return
		}
	}
	s.SetReplicaTargets(req.URLs)
	resp := ReplicationTarget{URLs: s.rep.targets()}
	sort.Strings(resp.URLs)
	writeJSON(w, http.StatusOK, resp)
}

// maxInternalBodyBytes caps the internal fleet endpoints' bodies
// (replicate/reconcile batches carry full results, so they get more
// headroom than a single submission).
const maxInternalBodyBytes = 256 << 20

// decodeInternal parses an internal endpoint's JSON body: exactly one
// value, with no field v does not have (routers and backends upgrade
// together, so an unknown field is a malformed body, not a newer
// sender). A false return means the error response was already written.
func decodeInternal(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInternalBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("data after the JSON value")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest,
			&ErrorPayload{Code: CodeBadRequest, Message: "parsing request body: " + err.Error()})
		return false
	}
	return true
}
