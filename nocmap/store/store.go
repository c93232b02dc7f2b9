package store

import "encoding/json"

// Job states a record can carry. They mirror the nocmap/server job
// lifecycle; the store itself only distinguishes terminal from live
// (Terminal) when deciding what a reboot should re-enqueue.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether a state is final: terminal records are
// replayed as history, live ones are re-enqueued on boot.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobRecord is the persisted form of one job: enough to answer status
// queries after a restart (terminal records) and to re-run work that a
// crash interrupted (queued/running records, which keep the canonical
// problem JSON and the normalized solve options).
type JobRecord struct {
	ID string `json:"id"`
	// Key is the canonical problem+options hash the server routes,
	// caches and coalesces by.
	Key string `json:"key,omitempty"`
	// Problem is the canonical problem JSON (the server's re-marshaled
	// parse, so formatting differences are already washed out).
	Problem json.RawMessage `json:"problem,omitempty"`
	// Spec is the normalized solve options (server.SolveSpec) as JSON.
	Spec  json.RawMessage `json:"spec,omitempty"`
	State string          `json:"state"`
	// CacheHit and Coalesced mirror the job's wire-status flags so a
	// restored status answers byte-identical to the pre-crash one, flags
	// included.
	CacheHit  bool `json:"cache_hit,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Result carries the marshaled nocmap.Result of a finished job,
	// byte-identical to what the pre-restart server answered.
	Result json.RawMessage `json:"result,omitempty"`
	// Error carries the marshaled server.ErrorPayload of a failed or
	// cancelled job.
	Error json.RawMessage `json:"error,omitempty"`
	// Seq is the terminal-transition sequence number: strictly
	// increasing in the order jobs finished, zero while a job is live.
	// Retention eviction and restart replay both order by it, so a
	// replayed store can never resurrect a job that retention already
	// evicted.
	Seq uint64 `json:"seq,omitempty"`
	// Minted is the writer's ID-counter highwater at the time the
	// record was written. Every deletion of an old record is preceded by
	// a newer record carrying a fresher highwater, so the maximum over
	// surviving records always bounds every ID ever issued — a restarted
	// server resumes past it and can never re-mint an ID, even after
	// retention deleted the numerically-highest records.
	Minted uint64 `json:"minted,omitempty"`
	// Origin is the ID prefix of the backend that owns this record. It
	// is set only on replica records (the replica namespace a follower
	// holds for its ring predecessor), never on a server's own jobs —
	// promotion selects the replicas to adopt by it.
	Origin string `json:"origin,omitempty"`
}

// CacheEntry is one persisted result-cache entry.
type CacheEntry struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// Snapshot is everything a store holds, as loaded at boot: the latest
// record per job, the latest cache entry per key, and the replica
// namespace — records this instance holds on behalf of its ring
// predecessor, kept apart from its own jobs so replication survives
// follower restarts too. Each list is in the order its IDs or keys
// were first put; a re-put does not move an entry. Every record and
// cache entry carries its result, however the store wrote it.
type Snapshot struct {
	Jobs     []JobRecord  `json:"jobs"`
	Cache    []CacheEntry `json:"cache"`
	Replicas []JobRecord  `json:"replicas,omitempty"`
}

// JobStore persists jobs, terminal results and result-cache entries
// across server restarts. ApplyOps is its one write path; a single
// mutation is a one-op batch. Put ops insert or overwrite, and deleting
// an unknown ID or key is a no-op. The replica ops act on the replica
// namespace: state replicated from this instance's ring predecessor,
// isolated from the instance's own jobs. Implementations must serialize
// concurrent calls internally; the nocmap/server writes from one
// flusher goroutine, but other writers make no such promise.
type JobStore interface {
	// ApplyOps applies ops in order under one durability barrier (one
	// fsync for a FileStore). On error the whole batch is rolled back
	// where the implementation can (FileStore truncates to the last
	// whole pre-batch line), so callers may retry op by op to isolate a
	// bad op.
	ApplyOps(ops []Op) error
	// Load returns the store's current contents. The server calls it
	// once at boot, before accepting work.
	Load() (*Snapshot, error)
	// Close releases the store's resources. Further writes may fail.
	Close() error
}

// OpKind names one kind of store mutation. The values are the WAL's
// on-disk op strings.
type OpKind string

// The store mutations a batch may carry.
const (
	OpPutJob        OpKind = "job"
	OpDeleteJob     OpKind = "deljob"
	OpPutCache      OpKind = "cache"
	OpDeleteCache   OpKind = "delcache"
	OpPutReplica    OpKind = "replica"
	OpDeleteReplica OpKind = "delreplica"
)

// Op is one store mutation, and its JSON form is one line of the WAL
// and of a snapshot. Exactly the fields the Kind needs are set: Rec for
// puts of job/replica records, ID for job/replica deletes, Key (and
// Result for puts) for cache operations. A line may leave the result
// out and add "ref":true, naming its key's entry in the store's result
// table instead, or add "own":true (see the package doc).
type Op struct {
	Kind   OpKind          `json:"op"`
	Rec    *JobRecord      `json:"job,omitempty"`
	ID     string          `json:"id,omitempty"`
	Key    string          `json:"key,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// line is one line of the WAL or of a snapshot: an op, and how its
// result stands to the store's result table (see memState). A line
// with neither flag carries its result, if any, and applies by the
// table's rule; so did every line of older stores.
type line struct {
	Op
	// Ref: the result is not written; it is the table's entry for the
	// op's key, which must exist.
	Ref bool `json:"ref,omitempty"`
	// Own: the result is the record's own even where it could share
	// the table's entry. Only snapshots write it.
	Own bool `json:"own,omitempty"`
}

// result returns the key and result a put op stores, and whether that
// result may enter or share the result table: only a done record's or
// a cache entry's, under a key. A cancelled job's partial result, for
// one, is always its own.
func (op *Op) result() (key string, res json.RawMessage, shareable bool) {
	switch op.Kind {
	case OpPutJob, OpPutReplica:
		key, res, shareable = op.Rec.Key, op.Rec.Result, op.Rec.State == StateDone
	case OpPutCache:
		key, res, shareable = op.Key, op.Result, true
	}
	return key, res, shareable && key != ""
}

// slot names the record an op puts or deletes: its namespace, given
// as that namespace's put kind, and its ID or cache key.
func (op *Op) slot() (ns OpKind, name string) {
	switch op.Kind {
	case OpPutJob, OpPutReplica:
		return op.Kind, op.Rec.ID
	case OpDeleteJob:
		return OpPutJob, op.ID
	case OpDeleteReplica:
		return OpPutReplica, op.ID
	}
	return OpPutCache, op.Key
}

// rawCopy deep-copies a raw message so callers may reuse their buffers.
func rawCopy(m json.RawMessage) json.RawMessage {
	if m == nil {
		return nil
	}
	return append(json.RawMessage(nil), m...)
}

func copyRecord(rec JobRecord) JobRecord {
	rec.Problem = rawCopy(rec.Problem)
	rec.Spec = rawCopy(rec.Spec)
	rec.Result = rawCopy(rec.Result)
	rec.Error = rawCopy(rec.Error)
	return rec
}
