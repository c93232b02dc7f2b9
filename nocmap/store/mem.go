package store

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
)

// MemStore is the in-memory JobStore: the same semantics as the durable
// store without any files — it wraps the exact state machine FileStore
// replays its WAL into, behind a mutex. It backs tests and
// single-process servers that want restart-over-the-same-process replay
// (create one, hand it to a server, close the server, hand the same
// store to its successor).
type MemStore struct {
	mu    sync.Mutex
	state memState
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{}
}

// ApplyOps implements JobStore: the whole batch folds into the state
// under one lock hold, mirroring FileStore's one-fsync batch.
func (m *MemStore) ApplyOps(ops []Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range ops {
		if err := m.state.apply(op); err != nil {
			return err
		}
	}
	return nil
}

// Load implements JobStore.
func (m *MemStore) Load() (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state.snapshot(), nil
}

// Close implements JobStore; a MemStore has nothing to release.
func (m *MemStore) Close() error { return nil }

// memState is the store's authoritative in-memory image, mirrored by
// snapshot+WAL on disk. Records are never mutated in place — a put
// stores a fresh copy — so a view's pointers stay valid after the
// state moves on. The zero value is an empty state.
type memState struct {
	jobs, replicas table[*JobRecord]
	cache          table[json.RawMessage]
}

// table is one namespace of a memState: the latest value put for each
// name, listed in the order the names were first put. A re-put replaces
// the value but keeps the name's first position; a delete drops the
// name, and putting it again appends it at the end.
type table[V any] struct {
	m     map[string]V
	order []string
}

func (t *table[V]) put(name string, v V) {
	if _, ok := t.m[name]; !ok {
		if t.m == nil {
			t.m = make(map[string]V)
		}
		t.order = append(t.order, name)
	}
	t.m[name] = v
}

func (t *table[V]) del(name string) {
	if _, ok := t.m[name]; !ok {
		return
	}
	delete(t.m, name)
	i := slices.Index(t.order, name)
	t.order = slices.Delete(t.order, i, i+1)
}

// appendTo appends to dst, in order, the put op that op builds for each
// entry.
func (t *table[V]) appendTo(dst []Op, op func(name string, v V) Op) []Op {
	for _, name := range t.order {
		dst = append(dst, op(name, t.m[name]))
	}
	return dst
}

// validate rejects malformed operations before they reach the WAL or
// the state: an invalid op must never be fsynced to disk, where it
// would poison every subsequent replay.
func (op *Op) validate() error {
	switch op.Kind {
	case OpPutJob, OpPutReplica:
		if op.Rec == nil || op.Rec.ID == "" {
			return fmt.Errorf("store: %s op without record", op.Kind)
		}
	case OpDeleteJob, OpDeleteCache, OpDeleteReplica:
	case OpPutCache:
		if op.Key == "" {
			return fmt.Errorf("store: cache op without key")
		}
	default:
		return fmt.Errorf("store: unknown wal op %q", op.Kind)
	}
	return nil
}

// apply folds one op into the state. A put keeps a copy of what it
// needs, so callers may reuse their buffers.
func (s *memState) apply(op Op) error {
	if err := op.validate(); err != nil {
		return err
	}
	switch op.Kind {
	case OpPutJob:
		rec := copyRecord(*op.Rec)
		s.jobs.put(rec.ID, &rec)
	case OpPutReplica:
		rec := copyRecord(*op.Rec)
		s.replicas.put(rec.ID, &rec)
	case OpPutCache:
		s.cache.put(op.Key, rawCopy(op.Result))
	case OpDeleteJob:
		s.jobs.del(op.ID)
	case OpDeleteCache:
		s.cache.del(op.Key)
	case OpDeleteReplica:
		s.replicas.del(op.ID)
	}
	return nil
}

// len is the number of live records across the three namespaces.
func (s *memState) len() int {
	return len(s.jobs.order) + len(s.cache.order) + len(s.replicas.order)
}

// view lists the put ops that rebuild the state — jobs, then cache,
// then replicas — sharing their records instead of copying them. It is
// what a snapshot file holds, one line per op.
func (s *memState) view() []Op {
	v := make([]Op, 0, s.len())
	v = s.jobs.appendTo(v, func(_ string, r *JobRecord) Op { return Op{Kind: OpPutJob, Rec: r} })
	v = s.cache.appendTo(v, func(k string, r json.RawMessage) Op { return Op{Kind: OpPutCache, Key: k, Result: r} })
	return s.replicas.appendTo(v, func(_ string, r *JobRecord) Op { return Op{Kind: OpPutReplica, Rec: r} })
}

// snapshot returns a deep copy of the state for Load.
func (s *memState) snapshot() *Snapshot {
	snap := &Snapshot{}
	for _, op := range s.view() {
		switch op.Kind {
		case OpPutJob:
			snap.Jobs = append(snap.Jobs, copyRecord(*op.Rec))
		case OpPutCache:
			snap.Cache = append(snap.Cache, CacheEntry{Key: op.Key, Result: rawCopy(op.Result)})
		case OpPutReplica:
			snap.Replicas = append(snap.Replicas, copyRecord(*op.Rec))
		}
	}
	return snap
}
