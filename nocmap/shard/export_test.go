package shard

// The ring's read side, for the tests that use the router as the
// routing oracle they compare a fleet against.

// Backends returns the normalized backend URLs in ring order 0..N-1.
func (rt *Router) Backends() []string {
	return append([]string(nil), rt.snapshot().backends...)
}

// Owner returns the backend URL a submission key routes to.
func (rt *Router) Owner(key string) string {
	topo := rt.snapshot()
	return topo.backends[topo.ring.owner(key)]
}

// Successors returns the full replica holder set for a backend — its
// ReplicationFactor distinct ring successors, nearest first — or nil
// for a single-backend fleet.
func (rt *Router) Successors(backend string) []string {
	topo := rt.snapshot()
	for i, b := range topo.backends {
		if b == backend {
			return rt.successorURLs(topo, i)
		}
	}
	return nil
}
