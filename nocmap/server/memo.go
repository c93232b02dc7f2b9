package server

import (
	"crypto/sha256"
	"sync"
)

// submitMemo remembers what the front door made of submission bodies
// whose parse ended in a result-cache hit: sha256(body) -> the job key
// and the profiled spec. ParseSubmit is a pure function of the body and
// the profile is fixed per server, so a later identical body can be
// admitted from the cache without being decoded. Bodies that solve,
// coalesce or fail are never remembered: distinct traffic pays one
// hash and one map miss.
//
// The memo holds at most 2×CacheSize entries; one more empties it
// first, the way the topology intern table is bounded. Its mutex never
// nests with Server.mu.
type submitMemo struct {
	mu    sync.Mutex
	max   int
	known map[[sha256.Size]byte]memoEntry
}

// memoEntry is what a remembered body parses to.
type memoEntry struct {
	key  string
	spec SolveSpec // normalized and profiled
}

// newSubmitMemo sizes a memo for a result cache of cacheSize entries;
// nil (no memo) when caching is disabled, since nothing could fill it.
func newSubmitMemo(cacheSize int) *submitMemo {
	if cacheSize <= 0 {
		return nil
	}
	return &submitMemo{max: 2 * cacheSize, known: make(map[[sha256.Size]byte]memoEntry)}
}

func (m *submitMemo) get(sum [sha256.Size]byte) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.known[sum]
	return e, ok
}

func (m *submitMemo) put(sum [sha256.Size]byte, e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.known[sum]; !ok && len(m.known) >= m.max {
		clear(m.known)
	}
	m.known[sum] = e
}

// submitKnown admits the submission whose body hashes to sum straight
// from the result cache, if the memo knows the body. It makes the same
// admission checks as submit under one hold of s.mu. ok=false means
// the memo does not know the body, or its key has left the cache (or
// only has an in-flight leader), and the caller must take the parse
// path: a job that could run, coalesce or be replayed needs its
// canonical problem, which this path never has.
func (s *Server) submitKnown(sum [sha256.Size]byte) (j *job, serr *submitError, ok bool) {
	e, known := s.memo.get(sum)
	if !known {
		return nil, nil, false
	}
	j = newJob(e.key, nil, nil, e.spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if serr := s.admissionErrorLocked(); serr != nil {
		return nil, serr, true
	}
	cached, _ := s.cache.get(e.key)
	if cached == nil { // admitLocked, too, takes only a result for a hit
		j.cancel()
		return nil, nil, false
	}
	s.registerLocked(j)
	s.admitLocked(j, cached, nil)
	return j, nil, true
}
