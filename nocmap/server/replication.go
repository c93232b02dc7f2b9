package server

import (
	"bytes"
	"cmp"
	"container/list"
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

// Ring replication: job records are asynchronously pushed from their
// owning backend to its replication target set — the backend's first R
// ring successors, the followers — over POST /v1/replicate. Every
// outcome ships, and so does every live record a client can name; a
// POST /v1/solve job ships only its outcome, since its client learns
// its ID with the answer (see job.replicates). Each follower keeps the
// records in its job store's replica namespace, apart from its own
// jobs, so replication survives follower restarts too. When the shard
// router declares the primary down it promotes the surviving follower
// with the highest applied terminal seq: terminal replicas are
// installed as queryable local jobs (answering byte-identical to the
// lost primary, flags included) and live replicas re-run under their
// original IDs. When the primary rejoins, the router runs an
// anti-entropy sweep — every holder's outcomes for the primary's jobs
// are pushed back over POST /v1/reconcile, where terminal-beats-live
// reconciliation adopts them.
//
// Each follower acknowledges batches with its applied high terminal seq
// (the acked watermark); the primary tracks the watermark per target,
// exposes the resulting replication lag (Stats.ReplicationLag), and —
// when a follower's reported watermark regresses, the signature of a
// follower restarted from a younger store — re-seeds every record above
// it, so the stream self-heals without a target change.

// RecordBatch is the one form job records cross the fleet in: the
// body of POST /v1/replicate and POST /v1/reconcile, and the answer of
// GET /v1/records. Each op's JSON is a line of the store's WAL. A
// replicate batch carries job and deljob ops: a record's latest state,
// or the deletion of one the origin's retention evicted (deletes must
// replicate too, or promotion could resurrect a job the primary
// already let go). A records or reconcile batch carries job and cache
// ops. An endpoint answers 400 bad_request and applies nothing when an
// op has a kind it does not take or is a job op without its record.
type RecordBatch struct {
	// Origin is a replicate batch's sender, its job-ID prefix;
	// promotion selects replicas to adopt by it.
	Origin string     `json:"origin,omitempty"`
	Ops    []store.Op `json:"ops"`
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
// most one pending op per job ID (the latest state wins), and queues a
// delete only for an ID some push attempt carried: an eviction drops
// any other ID's pending op instead. Its queue is therefore bounded by
// the server's own job population — retention plus the queue — plus
// one batch, however long the follower stays unreachable. Failed
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
	order    list.List                // queued store.Ops, oldest first
	pending  map[string]*list.Element // job ID → its op in order
	sent     map[string]bool          // IDs some push attempt carried
	inflight int                      // ops in the batch being pushed right now
	closed   chan struct{}

	acked         uint64 // records+deletes this follower acknowledged
	watermark     uint64 // follower-reported applied high terminal seq
	haveWatermark bool
	fails         int // consecutive failed pushes
	stalled       bool
	stalls        uint64 // stall episodes
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

// enqueue schedules a job or deljob op to every target, superseding
// any pending op for the same ID.
func (r *replicator) enqueue(op store.Op) {
	r.mu.Lock()
	streams := make([]*repStream, 0, len(r.streams))
	for _, st := range r.streams {
		streams = append(streams, st)
	}
	r.mu.Unlock()
	// No targets: drop rather than queue without bound. Adding a target
	// later reseeds the full state, so nothing is lost.
	for _, st := range streams {
		st.add(op)
	}
}

// enqueueTo schedules one op to a single target — the seeding path of a
// new follower, or of one whose watermark regressed.
func (r *replicator) enqueueTo(target string, op store.Op) {
	r.mu.Lock()
	st := r.streams[strings.TrimRight(target, "/")]
	r.mu.Unlock()
	if st != nil {
		st.add(op)
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
			Pending:   st.order.Len() + st.inflight,
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
		pending: make(map[string]*list.Element),
		sent:    make(map[string]bool),
		closed:  make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	go st.loop()
	return st
}

// add queues op behind every other ID, replacing any op still pending
// for its ID. Terminal seqs are assigned in enqueue order, so pending
// terminal records leave in seq order and a follower acking a batch
// never vouches for a seq above one still queued here. A delete for an
// ID no push attempt carried owes the follower nothing: it only drops
// the ID's pending op.
func (st *repStream) add(op store.Op) {
	id := opID(op)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.isClosed() {
		return
	}
	if e, ok := st.pending[id]; ok {
		st.order.Remove(e)
		delete(st.pending, id)
	}
	if op.Kind == store.OpDeleteJob && !st.sent[id] {
		return
	}
	st.pending[id] = st.order.PushBack(op)
	st.cond.Signal()
}

// opID names the job an op puts or deletes.
func opID(op store.Op) string {
	if op.Rec != nil {
		return op.Rec.ID
	}
	return op.ID
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
		for st.order.Len() == 0 && !st.isClosed() {
			st.cond.Wait()
		}
		if st.isClosed() {
			st.mu.Unlock()
			return
		}
		n := min(st.order.Len(), replicateBatch)
		batch := RecordBatch{Origin: st.r.origin, Ops: make([]store.Op, 0, n)}
		acks := make([]repAck, 0, n)
		for range n {
			op := st.order.Remove(st.order.Front()).(store.Op)
			id := opID(op)
			delete(st.pending, id)
			st.sent[id] = true
			batch.Ops = append(batch.Ops, op)
			acks = append(acks, repAck{id: id, terminal: op.Rec == nil || store.Terminal(op.Rec.State)})
		}
		st.inflight = n
		st.mu.Unlock()

		resp, err := st.send(batch)
		if err != nil {
			// Put the batch back at the front, in its own order, so it is
			// retried first (an op a newer one superseded while in flight
			// stays superseded, in the newer op's place); note the failure
			// for stall detection, and back off before the next attempt.
			st.mu.Lock()
			st.inflight = 0
			for i := n - 1; i >= 0; i-- {
				op := batch.Ops[i]
				if id := opID(op); st.pending[id] == nil {
					st.pending[id] = st.order.PushFront(op)
				}
			}
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
		for _, op := range batch.Ops {
			if op.Kind == store.OpDeleteJob {
				delete(st.sent, op.ID) // the follower has forgotten the ID
			}
		}
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

func (st *repStream) send(batch RecordBatch) (*ReplicateResponse, error) {
	body, err := json.Marshal(batch)
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

// seedReplicationToLocked enqueues every current job record that
// replicates to one target, converging that follower's replica
// namespace with our state. Callers hold s.mu.
func (s *Server) seedReplicationToLocked(target string) {
	for _, j := range s.jobsBySeqLocked() {
		if j.replicates() {
			s.rep.enqueueTo(target, s.jobOp(j))
		}
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
// live job that replicates (live records carry seq 0, so a restarted
// follower always needs them again). Runs from the stream's push
// goroutine via the onRegress hook.
func (s *Server) reseedAbove(target string, fromSeq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobsBySeqLocked() {
		if j.replicates() && (j.seq > fromSeq || !j.finished) {
			s.rep.enqueueTo(target, s.jobOp(j))
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
	req, ok := decodeBatch(w, r, store.OpPutJob, store.OpDeleteJob)
	if !ok {
		return
	}
	s.mu.Lock()
	applied := 0
	// touched collects every ID this request may vouch for; their
	// durable seqs are re-read from memory after the store settles.
	touched := make([]string, 0, len(req.Ops))
	for _, op := range req.Ops {
		if op.Kind == store.OpDeleteJob {
			if s.dropReplicaLocked(op.ID) {
				applied++
			}
			continue
		}
		rec := op.Rec
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
		s.replicas[rec.ID] = *rec
		if s.cfg.Store != nil {
			// Clear the dirty mark optimistically: if this write fails
			// too, storeOpFailed re-marks it before syncStore returns.
			delete(s.replicaDirty, rec.ID)
			s.enqueueOpLocked(store.Op{Kind: store.OpPutReplica, Rec: rec})
		}
		touched = append(touched, rec.ID)
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
// namespace. Each of the origin's replicas is adopted as reconcile
// adopts a record (adoptRecordLocked): a terminal replica becomes a
// queryable local job, or the outcome of a live local job with its ID,
// answering byte-identical to the lost primary; a live replica re-runs
// under its original ID. Idempotent — once adopted, a replica's ID is a
// local job that adopts nothing further, so the router may re-trigger
// promotion freely.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if !decodeInternal(w, r, &req) {
		return
	}
	s.mu.Lock()
	// Adopt in the origin's own (Seq, ID) order, never map order: the
	// terminal seqs minted here, the queue order of live jobs and the
	// LRU warm order must not change from run to run.
	var recs []store.JobRecord
	for _, rec := range s.replicas {
		if rec.Origin == req.Origin {
			recs = append(recs, rec)
		}
	}
	slices.SortFunc(recs, func(a, b store.JobRecord) int {
		return cmp.Or(cmp.Compare(a.Seq, b.Seq), strings.Compare(a.ID, b.ID))
	})
	promoted := 0
	for _, rec := range recs {
		if s.adoptRecordLocked(rec) {
			s.stats.Promoted++
			promoted++
		}
	}
	s.cond.Broadcast() // promoted live jobs joined the queue
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, PromoteResponse{Promoted: promoted})
}

// handleReconcile is POST /v1/reconcile: adopt the job records and
// cache entries of a batch pushed by the router — the anti-entropy
// sweep back onto a rejoined primary, or a key-range migration during
// elastic join/leave. A cache entry is adopted only for a key the
// cache does not hold.
func (s *Server) handleReconcile(w http.ResponseWriter, r *http.Request) {
	batch, ok := decodeBatch(w, r, store.OpPutJob, store.OpPutCache)
	if !ok {
		return
	}
	s.mu.Lock()
	applied := 0
	for _, op := range batch.Ops {
		if op.Kind == store.OpPutJob {
			if op.Rec.ID != "" && s.adoptRecordLocked(*op.Rec) {
				s.stats.Reconciled++
				applied++
			}
			continue
		}
		if op.Key == "" {
			continue
		}
		if _, ok := s.cache.get(op.Key); ok {
			continue
		}
		s.cache.add(op.Key, op.Result)
		s.persistCachePut(op.Key, op.Result)
		applied++
	}
	s.cond.Broadcast() // adopted live jobs joined the queue
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, ReconcileResponse{Applied: applied})
}

// adoptRecordLocked folds one foreign record into local state using
// terminal-beats-live, for promotion and reconcile alike: a live record
// for an unknown ID re-runs here under its ID; a terminal record
// becomes the outcome of a new local job, or of a local queued or
// running job with its ID (whose run is cancelled), byte-identical
// flags included, and a clean result warms the result cache. A
// terminal local job is never overwritten, and a live record for a
// live local job changes nothing: our own run finishes it. It reports
// whether anything changed. Callers hold s.mu.
func (s *Server) adoptRecordLocked(rec store.JobRecord) bool {
	j, ok := s.jobs[rec.ID]
	switch {
	case ok && (j.finished || !store.Terminal(rec.State)):
		return false
	case !store.Terminal(rec.State):
		s.recoverLive(rec)
		return true
	case !ok:
		j = newJob(rec.Key, nil, nil, SolveSpec{})
		j.id = rec.ID
		s.jobs[j.id] = j
	}
	j.cacheHit, j.coalesced = rec.CacheHit, rec.Coalesced
	s.finishLocked(j, rec.State, rec.Result, errorOf(rec), nil)
	if rec.State == StateDone && rec.Key != "" && len(rec.Result) > 0 {
		s.cache.add(rec.Key, rec.Result)
		s.persistCachePut(rec.Key, rec.Result)
	}
	return true
}

// handleRecords is GET /v1/records[?prefix=s0-]: a batch of this
// instance's job records, in (Seq, ID) order, then its cache entries,
// oldest first — what reconcile consumes on the other end.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	s.mu.Lock()
	batch := RecordBatch{Ops: []store.Op{}}
	for _, j := range s.jobsBySeqLocked() {
		if strings.HasPrefix(j.id, prefix) {
			batch.Ops = append(batch.Ops, s.jobOp(j))
		}
	}
	batch.Ops = s.cache.appendOps(batch.Ops)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, batch)
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

// decodeBatch parses an internal endpoint's RecordBatch body and
// checks that every op has one of kinds and that a job op carries its
// record, then compacts the results it carries (see compactJSON). A
// false return means the error response was already written.
func decodeBatch(w http.ResponseWriter, r *http.Request, kinds ...store.OpKind) (RecordBatch, bool) {
	var batch RecordBatch
	if !decodeInternal(w, r, &batch) {
		return batch, false
	}
	for i := range batch.Ops {
		op := &batch.Ops[i]
		if !slices.Contains(kinds, op.Kind) || op.Kind == store.OpPutJob && op.Rec == nil {
			writeError(w, http.StatusBadRequest, &ErrorPayload{Code: CodeBadRequest,
				Message: fmt.Sprintf("op %d: want an op of kind %v, and a record in a job op", i, kinds)})
			return batch, false
		}
		if op.Rec != nil {
			op.Rec.Result = compactJSON(op.Rec.Result)
		}
		op.Result = compactJSON(op.Result)
	}
	return batch, true
}
