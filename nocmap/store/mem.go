package store

import (
	"bytes"
	"encoding/json"
	"errors"
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
		if err := m.state.apply(line{Op: op}); err != nil {
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
//
// results is the result table: one result per JobKey, shared by every
// record and cache entry that holds it, so a result is kept (and
// written to disk) once however many jobs answered with it. Its rule,
// which replay applies line for line as the write path does: a put
// whose result may be shared (see Op.result) shares its key's entry
// when the bytes are equal, creates the entry when the key has none,
// and otherwise keeps its own copy, which never replaces the entry. An
// entry lives while any record or cache entry shares it; whether one
// does is told by slice identity with the entry.
type memState struct {
	jobs, replicas table[*JobRecord]
	cache          table[json.RawMessage]
	results        map[string]*resultEntry
	views          uint64 // view() calls, for resultEntry.mark
}

// resultEntry is one result in the table, with the number of records
// and cache entries that share it. mark is the view() call that last
// listed a sharer of it, so each view writes the result once.
type resultEntry struct {
	raw  json.RawMessage
	refs int
	mark uint64
}

// errUnknownResult is the corruption a line naming a result the table
// lacks reports.
var errUnknownResult = errors.New("reference to a result the table lacks")

// sameSlice reports whether a and b are the same non-empty slice: how
// a record is told to share its key's table entry.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// sameResult reports whether two results are equal, looking first for
// the same slice: the server hands the store one slice for a cache
// entry and every record answered from it.
func sameResult(a, b []byte) bool { return sameSlice(a, b) || bytes.Equal(a, b) }

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
	// Retention and the LRU delete the oldest name: drop it by
	// re-slicing, not by moving every later name down one.
	if i := slices.Index(t.order, name); i == 0 {
		t.order[0] = ""
		t.order = t.order[1:]
	} else {
		t.order = slices.Delete(t.order, i, i+1)
	}
}

// appendTo appends to dst, in order, the line l builds for each entry.
func (t *table[V]) appendTo(dst []line, l func(name string, v V) line) []line {
	for _, name := range t.order {
		dst = append(dst, l(name, t.m[name]))
	}
	return dst
}

// validate rejects malformed lines before they reach the WAL or the
// state: an invalid op must never be fsynced to disk, where it would
// poison every subsequent replay.
func (l *line) validate() error {
	op := &l.Op
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
	if l.Ref {
		if _, _, ok := op.result(); !ok || l.Own {
			return fmt.Errorf("store: %s op cannot reference a result", op.Kind)
		}
	}
	return nil
}

// held returns the key and result of the record in a slot (see
// Op.slot), or zero values when the slot is empty.
func (s *memState) held(ns OpKind, name string) (key string, res json.RawMessage) {
	if ns == OpPutCache {
		return name, s.cache.m[name]
	}
	if r := s.records(ns).m[name]; r != nil {
		return r.Key, r.Result
	}
	return "", nil
}

func (s *memState) records(ns OpKind) *table[*JobRecord] {
	if ns == OpPutReplica {
		return &s.replicas
	}
	return &s.jobs
}

// shares reports whether a result held under key is its table entry.
func (s *memState) shares(key string, res json.RawMessage) bool {
	e := s.results[key]
	return e != nil && sameSlice(e.raw, res)
}

// hold returns the result a put line stores, by the table's rule (see
// memState), counting the share.
func (s *memState) hold(l *line) (json.RawMessage, error) {
	key, res, ok := l.result()
	e := s.results[key]
	switch {
	case l.Ref:
		if e == nil {
			return nil, fmt.Errorf("store: %w: key %q", errUnknownResult, key)
		}
	case !ok || l.Own || len(res) == 0:
		return rawCopy(res), nil
	case e == nil:
		e = &resultEntry{raw: rawCopy(res)}
		if s.results == nil {
			s.results = make(map[string]*resultEntry)
		}
		s.results[key] = e
	case !sameResult(e.raw, res):
		return rawCopy(res), nil
	}
	e.refs++
	return e.raw, nil
}

// release drops one share of key's entry, if res is it, and the entry
// with its last share.
func (s *memState) release(key string, res json.RawMessage) {
	if e := s.results[key]; e != nil && sameSlice(e.raw, res) {
		if e.refs--; e.refs == 0 {
			delete(s.results, key)
		}
	}
}

// apply folds one line into the state. A put keeps a copy of what it
// needs, so callers may reuse their buffers; a shared result is the
// table's copy.
func (s *memState) apply(l line) error {
	if err := l.validate(); err != nil {
		return err
	}
	ns, name := l.slot()
	oldKey, oldRes := s.held(ns, name)
	switch l.Kind {
	case OpPutJob, OpPutReplica:
		res, err := s.hold(&l)
		if err != nil {
			return err
		}
		rec := *l.Rec
		rec.Problem, rec.Spec, rec.Error = rawCopy(rec.Problem), rawCopy(rec.Spec), rawCopy(rec.Error)
		rec.Result = res
		s.records(ns).put(name, &rec)
	case OpPutCache:
		res, err := s.hold(&l)
		if err != nil {
			return err
		}
		s.cache.put(name, res)
	case OpDeleteJob, OpDeleteReplica:
		s.records(ns).del(name)
	case OpDeleteCache:
		s.cache.del(name)
	}
	s.release(oldKey, oldRes)
	return nil
}

// len is the number of live records across the three namespaces.
func (s *memState) len() int {
	return len(s.jobs.order) + len(s.cache.order) + len(s.replicas.order)
}

// view lists the put lines that rebuild the state — jobs, then cache,
// then replicas — sharing their records instead of copying them. It is
// what a snapshot file holds, one line per op: the first sharer of each
// table entry carries the result, so it comes ahead of the lines that
// reference it.
func (s *memState) view() []line {
	s.views++
	v := make([]line, 0, s.len())
	v = s.jobs.appendTo(v, func(_ string, r *JobRecord) line { return s.viewLine(Op{Kind: OpPutJob, Rec: r}) })
	v = s.cache.appendTo(v, func(k string, r json.RawMessage) line { return s.viewLine(Op{Kind: OpPutCache, Key: k, Result: r}) })
	return s.replicas.appendTo(v, func(_ string, r *JobRecord) line { return s.viewLine(Op{Kind: OpPutReplica, Rec: r}) })
}

// viewLine is the view's line for one put op: a reference for a sharer
// after the view's first, Own for a record that could share but keeps
// its own result.
func (s *memState) viewLine(op Op) line {
	l := line{Op: op}
	key, res, ok := op.result()
	if !ok || len(res) == 0 {
		return l
	}
	if e := s.results[key]; e != nil && sameSlice(e.raw, res) {
		l.Ref = e.mark == s.views
		e.mark = s.views
	} else {
		l.Own = true
	}
	return l
}

// snapshot returns a deep copy of the state for Load.
func (s *memState) snapshot() *Snapshot {
	snap := &Snapshot{}
	for _, l := range s.view() {
		switch l.Kind {
		case OpPutJob:
			snap.Jobs = append(snap.Jobs, copyRecord(*l.Rec))
		case OpPutCache:
			snap.Cache = append(snap.Cache, CacheEntry{Key: l.Key, Result: rawCopy(l.Result)})
		case OpPutReplica:
			snap.Replicas = append(snap.Replicas, copyRecord(*l.Rec))
		}
	}
	return snap
}
