package server

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/nocmap"
	"repro/nocmap/store"
)

// Config sizes the service. The zero value is usable: one worker per
// CPU, a 256-deep queue and a 128-entry result cache.
type Config struct {
	// Pool is the number of concurrent solver workers (<= 0: one per
	// CPU). Problems on the same small topology share one interned
	// Topology, so its routing caches stay warm whichever worker
	// solves them.
	Pool int
	// QueueSize bounds the number of jobs waiting for a worker;
	// submissions beyond it are rejected with CodeQueueFull (<= 0: 256).
	QueueSize int
	// CacheSize is the LRU result-cache capacity in entries (0: 128;
	// negative: caching disabled).
	CacheSize int
	// Retention bounds how many finished jobs keep their status
	// queryable via GET /v1/jobs/{id} (<= 0: 1024). Jobs are evicted in
	// terminal-transition order — the job that finished longest ago goes
	// first, regardless of when it was submitted; the result cache is
	// separate and unaffected.
	Retention int
	// Store, when non-nil, persists jobs, terminal results and cache
	// entries. New replays it: finished jobs answer byte-identical to
	// before the restart, queued/running jobs are re-enqueued (counted
	// in Stats.Recovered) and the result cache is re-warmed. nil keeps
	// everything in process memory only.
	Store store.JobStore
	// Profile selects a service preset ("" or ProfileRepro: run solves
	// exactly as requested; ProfileFast: default to full parallelism and
	// the PBB FastQueue for non-reproduction traffic).
	Profile Profile
	// IDPrefix is prepended to every minted job ID (e.g. "s0-" yields
	// "s0-job-00000001"). Give each backend behind a shard router a
	// distinct prefix so the router can route an ID back to its owner.
	IDPrefix string
	// ReplicaTargets, when non-empty, are the base URLs of this
	// instance's ring successors: every job record and terminal result
	// is asynchronously pushed to each over POST /v1/replicate, so a
	// successor can answer for this instance after a failure. A shard
	// router normally manages the set at runtime via
	// PUT /v1/replication/target; the config field seeds standalone
	// fleets.
	ReplicaTargets []string
	// DurableAckWait bounds how long a durability=replicated submission
	// ack is held waiting for a follower acknowledgment before it
	// degrades to async (<= 0: 2s). Solve throughput is never blocked —
	// only the submitting handler waits.
	DurableAckWait time.Duration
	// StoreQueue bounds the async persistence write-behind window: when
	// more than this many store ops are enqueued but not yet settled,
	// new submissions are rejected with 429 until the disk catches up
	// (<= 0: 4096). This is the durability backpressure that keeps a
	// slow disk from growing unpersisted state without bound — the
	// replacement for the old behavior of serializing the whole API
	// behind each fsync.
	StoreQueue int
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = runtime.NumCPU()
	}
	if c.Profile == "" {
		c.Profile = ProfileRepro
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	} else if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.Retention <= 0 {
		c.Retention = 1024
	}
	if c.DurableAckWait <= 0 {
		c.DurableAckWait = 2 * time.Second
	}
	if c.StoreQueue <= 0 {
		c.StoreQueue = 4096
	}
	return c
}

// job is one submission moving through the queue.
type job struct {
	id  string
	key string // canonical problem+options hash (cache / coalescing)

	// problem and canon are dropped when the job finishes: terminal
	// records never carry the problem, and a retained status must not
	// pin it.
	problem *nocmap.Problem
	spec    SolveSpec
	canon   []byte // canonical problem JSON (persisted for replay)

	ctx    context.Context
	cancel context.CancelFunc

	// Guarded by Server.mu.
	state     string
	seq       uint64 // terminal-transition sequence; 0 while live
	cacheHit  bool
	coalesced bool
	finished  bool
	errPay    *ErrorPayload
	result    json.RawMessage
	leader    *job   // non-nil while this job rides a coalesced leader
	followers []*job // identical jobs sharing this job's computation

	done chan struct{} // closed when finished

	// Progress subscribers, guarded by subMu (publish happens on the
	// solver goroutine, subscribe/unsubscribe on handler goroutines).
	subMu sync.Mutex
	subs  map[chan JobEvent]struct{}
}

// Server owns the job queue, the bounded worker pool, the coalescing
// index and the result cache. Create one with New, expose it with
// Handler, stop it with Close.
type Server struct {
	cfg Config

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*job
	jobs      map[string]*job
	leaders   map[string]*job // key -> unfinished leader to coalesce onto
	doneOrder []string        // finished job IDs, terminal-transition order
	cache     *resultCache
	memo      *submitMemo // nil when caching is disabled
	stats     Stats
	running   int
	closed    bool
	nextID    uint64
	termSeq   uint64 // terminal-transition sequence (persisted per job)

	// replicas holds other backends' job records replicated here (the
	// follower half of ring replication), keyed by job ID. Guarded by
	// mu; the persisted mirror lives in the store's replica namespace.
	replicas map[string]store.JobRecord
	// replicaHigh is the acked watermark per origin: the highest
	// terminal seq held both in memory and durably in the store. A
	// replica whose store write failed is tracked in replicaDirty and
	// never vouched for. Guarded by mu.
	replicaHigh  map[string]uint64
	replicaDirty map[string]bool
	// rep fans this instance's own records out to its replication
	// target set. Its internal locks nest under mu (mu -> stream.mu);
	// the push loops themselves never take mu — their hooks take mu or
	// ackMu only from the loop goroutine with no stream lock held.
	rep *replicator

	// ackWaiters resolves durability=replicated held acks: one waiter
	// per waiting submission, closed by the replicator's onAck hook.
	// Guarded by ackMu (never nested inside stream locks; may nest
	// under mu).
	ackMu      sync.Mutex
	ackWaiters map[string]*ackWaiter

	// The persistence outbox: store mutations decided under mu are
	// appended here (enqueueOpLocked) and handed to Config.Store by the
	// flusher goroutine OUTSIDE the lock, in exactly the order the lock
	// serialized them. This is what keeps every store write — and its
	// fsync — off the API's critical section: a slow disk now delays
	// durability acknowledgments, never submissions or status reads.
	// The flusher hands each drained batch to Store.ApplyOps, so one
	// fsync covers everything that piled up behind the previous one.
	// All guarded by mu; outCond wakes the flusher.
	outbox     []store.Op
	outSeq     uint64 // ops ever enqueued to the outbox
	outFlushed uint64 // ops the store has settled: fsynced, or failed and counted
	outWaiters []outWaiter
	outClosed  bool
	outCond    *sync.Cond
	flushWG    sync.WaitGroup

	wg sync.WaitGroup
}

// outWaiter parks a syncStore caller until the store has settled the
// op it is waiting on.
type outWaiter struct {
	target uint64
	ch     chan struct{}
}

// ackWaiter carries the two acknowledgment edges a durable submission
// may wait on: the first acked record for the job (the submit ack) and
// the first acked terminal record (the sync-solve ack).
type ackWaiter struct {
	first               chan struct{}
	terminal            chan struct{}
	firstDone, termDone bool
}

// New builds the service, replays Config.Store when one is set and
// starts the worker pool. It fails only on an unknown profile or a
// store that cannot be loaded.
func New(cfg Config) (*Server, error) {
	if !cfg.Profile.Valid() {
		return nil, fmt.Errorf("server: unknown profile %q (want %q or %q)",
			cfg.Profile, ProfileRepro, ProfileFast)
	}
	s := &Server{
		cfg:          cfg.withDefaults(),
		jobs:         make(map[string]*job),
		leaders:      make(map[string]*job),
		replicas:     make(map[string]store.JobRecord),
		replicaHigh:  make(map[string]uint64),
		replicaDirty: make(map[string]bool),
		ackWaiters:   make(map[string]*ackWaiter),
	}
	// The replicator starts targetless so replay's writes are not pushed
	// piecemeal; SetReplicaTargets below reseeds the full state once.
	s.rep = newReplicator(s.cfg.IDPrefix, replicatorHooks{
		onAck:     s.replicationAcked,
		onRegress: s.reseedAbove,
	})
	s.cache = newResultCache(s.cfg.CacheSize)
	s.memo = newSubmitMemo(s.cfg.CacheSize)
	if s.cfg.Store != nil {
		// LRU eviction fires under mu; the delete rides the outbox like
		// every other store write.
		s.cache.onEvict = func(key string) {
			s.enqueueOpLocked(store.Op{Kind: store.OpDeleteCache, Key: key})
		}
	}
	s.cond = sync.NewCond(&s.mu)
	s.outCond = sync.NewCond(&s.mu)
	if s.cfg.Store != nil {
		if err := s.replay(); err != nil {
			return nil, err
		}
		s.flushWG.Add(1)
		go s.persistLoop()
	}
	for i := 0; i < s.cfg.Pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.SetReplicaTargets(s.cfg.ReplicaTargets)
	return s, nil
}

// Info describes this instance to clients and shard routers.
func (s *Server) Info() Info {
	targets := s.rep.targets()
	sort.Strings(targets)
	return Info{
		IDPrefix:       s.cfg.IDPrefix,
		Profile:        s.cfg.Profile,
		Durable:        s.cfg.Store != nil,
		ReplicaTargets: targets,
	}
}

// Close stops accepting jobs, cancels everything queued or running,
// waits for the workers to drain, then drains the persistence outbox —
// every state change decided before Close returns is on disk (or
// counted in Stats.StoreErrors). Closing the store stays with its
// owner. Queued jobs finish cancelled without a result; running jobs
// finish cancelled with their partial result.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.flushWG.Wait()
		return
	}
	s.closed = true
	for _, j := range s.queue {
		s.finishLocked(j, StateCancelled, nil,
			&ErrorPayload{Code: CodeShuttingDown, Message: "server shutting down"})
	}
	s.queue = nil
	for _, j := range s.jobs {
		if !j.finished {
			j.cancel()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait() // workers may still finish jobs, appending outbox ops
	s.mu.Lock()
	s.outClosed = true
	s.outCond.Broadcast()
	s.mu.Unlock()
	s.flushWG.Wait()
	s.rep.close()
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.QueueLen = len(s.queue)
	st.Running = s.running
	st.CacheLen = s.cache.len()
	st.Replicas = len(s.replicas)
	st.StorePending = int(s.outSeq - s.outFlushed) // outbox + the flusher's in-flight batch
	termSeq := s.termSeq
	s.mu.Unlock()
	if fs := backingFileStore(s.cfg.Store); fs != nil {
		cs := fs.CompactionStats()
		st.Compactions = cs.Compactions
		st.CompactRunning = cs.Running
		st.StoreSegments = cs.Segments
	}
	// The replication breakdown comes from the streams' own locks,
	// outside mu (mu nests above them, never below).
	st.ReplicaTargets = s.rep.targetStats(termSeq)
	sort.Slice(st.ReplicaTargets, func(i, k int) bool {
		return st.ReplicaTargets[i].URL < st.ReplicaTargets[k].URL
	})
	for _, ts := range st.ReplicaTargets {
		st.Replicated += ts.Acked
		st.ReplicationPending += ts.Pending
		st.ReplicationLag += ts.Lag
		if ts.Stalled {
			st.ReplicationStalled = true
		}
	}
	st.ReplicationStalls = s.rep.stallCount()
	return st
}

// backingFileStore walks the store wrapper chain (fault injection, the
// sync-mode shim, ...) via Unwrap down to the durable *store.FileStore,
// or nil when persistence is memory-only or absent.
func backingFileStore(js store.JobStore) *store.FileStore {
	for js != nil {
		if fs, ok := js.(*store.FileStore); ok {
			return fs
		}
		u, ok := js.(interface{ Unwrap() store.JobStore })
		if !ok {
			return nil
		}
		js = u.Unwrap()
	}
	return nil
}

// submitError couples a typed payload with the HTTP status the handler
// should answer with.
type submitError struct {
	status  int
	payload *ErrorPayload
}

// newJob builds an unregistered job for a submission. p and canon are
// nil only for a job admitted straight from the result cache.
func newJob(key string, p *nocmap.Problem, canon []byte, spec SolveSpec) *job {
	j := &job{
		key:     key,
		problem: p,
		spec:    spec,
		canon:   canon,
		done:    make(chan struct{}),
		subs:    make(map[chan JobEvent]struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	return j
}

// submit validates nothing (the handler already parsed and normalized);
// it mints the job's ID and admits it, and reports whether the result
// cache answered it. Only a job that would need a queue slot can be
// turned away by a full queue.
func (s *Server) submit(p *nocmap.Problem, problemJSON []byte, spec SolveSpec) (*job, bool, *submitError) {
	j := newJob(JobKey(problemJSON, spec), p, problemJSON, spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if serr := s.admissionErrorLocked(); serr != nil {
		return nil, false, serr
	}
	cached, leader := s.placeLocked(j.key)
	if cached == nil && leader == nil && len(s.queue) >= s.cfg.QueueSize {
		return nil, false, &submitError{status: 429,
			payload: &ErrorPayload{Code: CodeQueueFull,
				Message: fmt.Sprintf("queue full (%d jobs waiting)", len(s.queue))}}
	}
	s.registerLocked(j)
	s.admitLocked(j, cached, leader)
	return j, cached != nil, nil
}

// admissionErrorLocked is what every submission is checked against
// before it is placed: a closed server answers 503, and a store
// write-behind StoreQueue ops deep answers 429. Callers hold s.mu.
func (s *Server) admissionErrorLocked() *submitError {
	if s.closed {
		return &submitError{status: 503,
			payload: &ErrorPayload{Code: CodeShuttingDown, Message: "server shutting down"}}
	}
	if s.cfg.Store != nil && int(s.outSeq-s.outFlushed) >= s.cfg.StoreQueue {
		// Durability backpressure: the async write path is StoreQueue ops
		// behind. Admitting more work would grow the unpersisted window
		// without bound, so shed load until the disk catches up.
		return &submitError{status: 429,
			payload: &ErrorPayload{Code: CodeQueueFull,
				Message: fmt.Sprintf("store write-behind full (%d ops pending)", s.outSeq-s.outFlushed)}}
	}
	return nil
}

// placeLocked decides where a job with key goes: the cached result it
// finishes from, else the unfinished leader it coalesces onto; both nil
// means it needs a queue slot as a new leader. Callers hold s.mu.
func (s *Server) placeLocked(key string) (json.RawMessage, *job) {
	if cached, ok := s.cache.get(key); ok {
		return cached, nil
	}
	return nil, s.leaders[key]
}

// admitLocked places a job that carries its ID where placeLocked
// decided: finished from cached, coalesced onto leader, or queued as a
// new leader. Live submissions and replayed, promoted or migrated live
// records all enter here. Callers hold s.mu.
func (s *Server) admitLocked(j *job, cached json.RawMessage, leader *job) {
	if cached != nil {
		s.finishCachedLocked(j, cached)
		return
	}
	if leader != nil {
		j.state = leader.state
		j.coalesced = true
		j.leader = leader
		leader.followers = append(leader.followers, j)
		s.stats.Coalesced++
		s.persistJob(j)
		return
	}
	j.state = StateQueued
	s.leaders[j.key] = j
	s.queue = append(s.queue, j)
	s.persistJob(j)
	s.cond.Signal()
}

// enqueueOpLocked appends one store mutation to the persistence outbox
// and wakes the flusher. The outbox preserves mu's serialization order,
// so the WAL always agrees with the in-memory history. Callers hold
// s.mu; with no store configured this is a no-op.
func (s *Server) enqueueOpLocked(op store.Op) {
	if s.cfg.Store == nil {
		return
	}
	s.outbox = append(s.outbox, op)
	s.outSeq++
	s.outCond.Signal()
}

// persistLoop is the flusher goroutine: it drains the outbox in FIFO
// order and applies each drained batch to the store with no lock held.
// Everything that accumulated while the previous batch was writing
// flushes as one batch — group commit forms naturally under load. A
// batch counts as flushed only once the store has settled it, so
// outFlushed never runs ahead of the disk.
func (s *Server) persistLoop() {
	defer s.flushWG.Done()
	for {
		s.mu.Lock()
		for len(s.outbox) == 0 && !s.outClosed {
			s.outCond.Wait()
		}
		if len(s.outbox) == 0 && s.outClosed {
			s.mu.Unlock()
			return
		}
		batch := s.outbox
		s.outbox = nil
		s.mu.Unlock()

		s.applyStoreOps(batch)

		s.mu.Lock()
		s.outFlushed += uint64(len(batch))
		rest := s.outWaiters[:0]
		for _, w := range s.outWaiters {
			if w.target <= s.outFlushed {
				close(w.ch)
			} else {
				rest = append(rest, w)
			}
		}
		s.outWaiters = rest
		s.mu.Unlock()
	}
}

// applyStoreOps hands one outbox batch to the store, outside every
// server lock, under one durability barrier. On a batch error the store
// has rolled the batch back, so the ops are retried one by one: a single
// bad op cannot condemn the records around it.
func (s *Server) applyStoreOps(batch []store.Op) {
	if err := s.cfg.Store.ApplyOps(batch); err == nil {
		return
	}
	for _, op := range batch {
		if err := s.cfg.Store.ApplyOps([]store.Op{op}); err != nil {
			s.storeOpFailed(op, err)
		}
	}
}

// storeOpFailed is the failure sink for the flusher's op-by-op retry.
// It runs off every lock and before the batch's outFlushed advance.
// Failures are counted, and a failed replica put marks the record dirty
// so no durability watermark vouches for it until a later write heals
// it.
func (s *Server) storeOpFailed(op store.Op, err error) {
	_ = err // the stats counter is the signal; the server keeps serving
	s.mu.Lock()
	s.stats.StoreErrors++
	if op.Kind == store.OpPutReplica && op.Rec != nil {
		if _, ok := s.replicas[op.Rec.ID]; ok {
			s.replicaDirty[op.Rec.ID] = true
		}
	}
	s.mu.Unlock()
}

// storeTicket snapshots the outbox enqueue counter: syncStore(ticket)
// then means "everything persisted up to this instant is settled" —
// which covers any record the caller just wrote under mu.
func (s *Server) storeTicket() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outSeq
}

// syncStore blocks until the store has settled every op up to ticket:
// fsynced, or failed and passed to storeOpFailed. This is the bridge
// from "enqueued" to "persisted" that durability acks and replication
// watermarks key off.
func (s *Server) syncStore(ctx context.Context, ticket uint64) error {
	if s.cfg.Store == nil || ticket == 0 {
		return nil
	}
	s.mu.Lock()
	if s.outFlushed >= ticket {
		s.mu.Unlock()
		return nil
	}
	w := outWaiter{target: ticket, ch: make(chan struct{})}
	s.outWaiters = append(s.outWaiters, w)
	s.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// registerLocked admits an accepted job: rejected submissions (queue
// full, shutdown) get no ID and do not count as submitted. A
// durability=replicated submission registers its ack waiter here —
// before any record can be enqueued to the replicator — so the
// follower acknowledgment can never race past it.
func (s *Server) registerLocked(j *job) {
	s.nextID++
	j.id = fmt.Sprintf("%sjob-%08d", s.cfg.IDPrefix, s.nextID)
	s.jobs[j.id] = j
	s.stats.Submitted++
	if j.spec.Durability == DurabilityReplicated {
		s.ackMu.Lock()
		s.ackWaiters[j.id] = &ackWaiter{
			first:    make(chan struct{}),
			terminal: make(chan struct{}),
		}
		s.ackMu.Unlock()
	}
}

// replicationAcked is the replicator's onAck hook: a follower
// acknowledged a batch, so any submission ack held on one of its
// records resolves. Runs on a stream's push goroutine with no stream
// lock held.
func (s *Server) replicationAcked(target string, acks []repAck) {
	s.ackMu.Lock()
	for _, a := range acks {
		w, ok := s.ackWaiters[a.id]
		if !ok {
			continue
		}
		if !w.firstDone {
			w.firstDone = true
			close(w.first)
		}
		if a.terminal && !w.termDone {
			w.termDone = true
			close(w.terminal)
			delete(s.ackWaiters, a.id)
		}
	}
	s.ackMu.Unlock()
}

// awaitDurable implements the replicated durability class: hold the
// submission ack until the job's record is BOTH settled on the local
// store — flushed through the outbox and fsynced, so the ack can never
// leapfrog a record still sitting in the outbox — and acknowledged by a
// follower (terminal=false waits for any record — the async submit ack;
// terminal=true waits for a terminal one — the sync solve ack). The whole wait is bounded by
// Config.DurableAckWait and the caller's ctx; with no replication
// targets it degrades immediately. Returns the outcome for the
// X-Nocmap-Durability header.
func (s *Server) awaitDurable(ctx context.Context, id string, terminal bool) string {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.DurableAckWait)
	defer cancel()
	// Local durability first: everything persisted up to this point —
	// which includes this job's record — must be on disk before any
	// follower ack may be reported as "replicated".
	localOK := s.syncStore(ctx, s.storeTicket()) == nil

	s.ackMu.Lock()
	w, ok := s.ackWaiters[id]
	s.ackMu.Unlock()
	if !ok {
		// The waiter already resolved terminally (and was removed) before
		// the handler got here: fully acknowledged — if the disk kept up.
		s.countDurable(localOK)
		if !localOK {
			return DurabilityDegraded
		}
		return DurabilityReplicated
	}
	ch := w.first
	if terminal {
		ch = w.terminal
	}
	outcome := DurabilityDegraded
	if localOK && s.rep.hasTargets() {
		select {
		case <-ch:
			outcome = DurabilityReplicated
		case <-ctx.Done():
		}
	}
	// Drop the waiter: nobody else waits on this submission, and a
	// degraded one would otherwise leak until terminal ack.
	s.ackMu.Lock()
	delete(s.ackWaiters, id)
	s.ackMu.Unlock()
	s.countDurable(outcome == DurabilityReplicated)
	return outcome
}

func (s *Server) countDurable(acked bool) {
	s.mu.Lock()
	if acked {
		s.stats.DurableAcks++
	} else {
		s.stats.DurableAcksDegraded++
	}
	s.mu.Unlock()
}

// finishCachedLocked completes a job straight from the result cache:
// terminal done, counted as a cache hit only (never a solve — nothing
// ran). Shared by live submissions and restart recovery so the stats
// cannot drift between the two paths. Callers hold s.mu.
func (s *Server) finishCachedLocked(j *job, cached json.RawMessage) {
	j.state = StateDone
	j.finished = true
	j.cacheHit = true
	j.result = cached
	j.cancel() // nothing will run; release the context
	close(j.done)
	s.termSeq++
	j.seq = s.termSeq
	s.persistJob(j)
	j.problem, j.canon = nil, nil
	s.retainLocked(j)
	s.stats.CacheHits++
}

// retainLocked enrolls a finished job in the bounded retention window,
// evicting the oldest finished statuses beyond Config.Retention so a
// long-running server's job index cannot grow without bound. doneOrder
// is strictly terminal-transition order (jobs enroll the moment they
// finish, wherever they sat in the submission order), and every
// eviction is mirrored into the job store — the pair of invariants that
// keeps a replayed store from resurrecting jobs retention already let
// go. (Live handles — an SSE subscriber's *job — keep working after
// eviction; only lookup by ID ends.)
func (s *Server) retainLocked(j *job) {
	s.doneOrder = append(s.doneOrder, j.id)
	s.evictBeyondRetentionLocked()
}

// evictBeyondRetentionLocked evicts the oldest finished statuses
// beyond Config.Retention, from memory and from the store.
func (s *Server) evictBeyondRetentionLocked() {
	for len(s.doneOrder) > s.cfg.Retention {
		evicted := s.doneOrder[0]
		delete(s.jobs, evicted)
		s.doneOrder = s.doneOrder[1:]
		s.dropPersistedJob(evicted)
		// A replica record for the evicted ID (a job this instance once
		// promoted) must go too, or the next promotion would resurrect a
		// job retention already let go.
		s.dropReplicaLocked(evicted)
	}
}

// get looks a job up by ID.
func (s *Server) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancelJob cancels one job. A queued leader (and its coalesced
// followers — they share the computation) finishes immediately without
// a result; a running leader has its context cancelled and finishes
// with the partial result the solver salvages; a follower detaches and
// finishes alone, leaving the leader running.
func (s *Server) cancelJob(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cancelLocked(j)
}

// abandon is the synchronous handler's disconnect path: cancel the job
// unless other submissions share its computation — a leader whose
// followers are still interested keeps solving for them.
func (s *Server) abandon(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.leader == nil && len(j.followers) > 0 {
		return
	}
	s.cancelLocked(j)
}

func (s *Server) cancelLocked(j *job) {
	if j.finished {
		return
	}
	if j.leader != nil {
		lead := j.leader
		for i, f := range lead.followers {
			if f == j {
				lead.followers = append(lead.followers[:i], lead.followers[i+1:]...)
				break
			}
		}
		s.finishLocked(j, StateCancelled, nil,
			&ErrorPayload{Code: CodeCancelled, Message: "job cancelled"})
		return
	}
	if j.state == StateQueued {
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.finishLocked(j, StateCancelled, nil,
			&ErrorPayload{Code: CodeCancelled, Message: "job cancelled"})
		return
	}
	// Running: the solver unwinds, finish happens in solve().
	j.cancel()
}

// finishLocked records a job's outcome, propagates it to coalesced
// followers and wakes waiters. Callers hold s.mu.
func (s *Server) finishLocked(j *job, state string, result json.RawMessage, errPay *ErrorPayload) {
	s.finishWithLocked(j, state, result, errPay, true)
}

// finishWithLocked is finishLocked with the per-state counters
// optional: reconcile adoption installs an outcome another backend
// already counted as solved/failed/cancelled, so it counts Reconciled
// instead (at the call site) and passes countStats=false. Callers hold
// s.mu.
func (s *Server) finishWithLocked(j *job, state string, result json.RawMessage, errPay *ErrorPayload, countStats bool) {
	if j.finished {
		return
	}
	j.state = state
	j.result = result
	j.errPay = errPay
	j.finished = true
	j.cancel() // release the context's resources
	if s.leaders[j.key] == j {
		delete(s.leaders, j.key)
	}
	if countStats {
		switch state {
		case StateCancelled:
			s.stats.Cancelled++
		case StateFailed:
			s.stats.Failed++
		case StateDone:
			s.stats.Solved++
		}
	}
	s.termSeq++
	j.seq = s.termSeq
	s.persistJob(j)
	j.problem, j.canon = nil, nil
	s.retainLocked(j)
	close(j.done)
	for _, f := range j.followers {
		f.leader = nil
		s.finishWithLocked(f, state, result, errPay, countStats)
	}
	j.followers = nil
}

// worker is one pool goroutine: it pops the head of the queue and
// solves it.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue[0] = nil // drop the popped job's reference from the backing array
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.solve(j)
	}
}

// solve runs one job to completion on the calling worker goroutine.
func (s *Server) solve(j *job) {
	s.mu.Lock()
	if j.finished {
		s.mu.Unlock()
		return
	}
	// The queued->running transition is deliberately NOT persisted:
	// replay re-enqueues running and queued records identically, so the
	// extra fsynced WAL append per job (under s.mu) would buy nothing.
	j.state = StateRunning
	for _, f := range j.followers {
		f.state = StateRunning
	}
	s.running++
	prob := j.problem
	s.mu.Unlock()

	opts := append(j.spec.Options(), nocmap.WithProgress(func(ev nocmap.Event) {
		s.publish(j, ev)
	}))
	res, err := nocmap.Solve(j.ctx, prob, opts...)

	var raw json.RawMessage
	if res != nil {
		if b, merr := json.Marshal(res); merr == nil {
			raw = b
		} else if err == nil {
			err = fmt.Errorf("marshaling result: %w", merr)
		}
	}

	s.mu.Lock()
	s.running--
	switch {
	case err == nil:
		s.cache.add(j.key, raw)
		s.persistCachePut(j.key, raw)
		s.finishLocked(j, StateDone, raw, nil)
	case j.ctx.Err() != nil:
		// Cancelled mid-solve: the partial result (Result.Partial) rides
		// along when the algorithm salvaged one.
		s.finishLocked(j, StateCancelled, raw,
			&ErrorPayload{Code: CodeCancelled, Message: err.Error()})
	default:
		s.finishLocked(j, StateFailed, raw, errorPayload(err))
	}
	s.mu.Unlock()
}

// publish fans a progress event out to the job's subscribers and those
// of its coalesced followers. Slow subscribers drop events (progress is
// advisory); the terminal status is delivered via the done channel.
func (s *Server) publish(j *job, ev nocmap.Event) {
	s.mu.Lock()
	targets := append([]*job{j}, j.followers...)
	s.mu.Unlock()
	for _, t := range targets {
		wire := JobEvent{
			JobID:     t.id,
			Algorithm: ev.Algorithm,
			Phase:     ev.Phase,
			Step:      ev.Step,
			Total:     ev.Total,
			Best:      ev.Best,
		}
		t.subMu.Lock()
		for ch := range t.subs {
			select {
			case ch <- wire:
			default:
			}
		}
		t.subMu.Unlock()
	}
}

// subscribe registers a progress channel for a job; the returned func
// unregisters it.
func (j *job) subscribe() (chan JobEvent, func()) {
	ch := make(chan JobEvent, 64)
	j.subMu.Lock()
	j.subs[ch] = struct{}{}
	j.subMu.Unlock()
	return ch, func() {
		j.subMu.Lock()
		delete(j.subs, ch)
		j.subMu.Unlock()
	}
}

// statusOf snapshots a job's wire status.
func (s *Server) statusOf(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return JobStatus{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		Error:     j.errPay,
		Result:    j.result,
	}
}
