package store

import "sync"

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
	return &MemStore{state: newMemState()}
}

// ApplyOps implements JobStore: the whole batch folds into the state
// under one lock hold, mirroring FileStore's one-fsync batch.
func (m *MemStore) ApplyOps(ops []Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range ops {
		if err := m.state.apply(op.wal()); err != nil {
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
