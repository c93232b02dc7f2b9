package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over backend indices: each backend
// owns Replicas virtual points hashed from its URL, and a job key lands
// on the first point clockwise of its own hash. The layout is a pure
// function of the backend URL set, so assignments are stable across
// router restarts — the property the per-backend result caches rely on
// — and adding or removing one backend moves only ~1/N of the keyspace.
type ring struct {
	points []ringPoint
	n      int // backend count
}

type ringPoint struct {
	hash    uint64
	backend int
}

// hash64 hashes an arbitrary string onto the ring's keyspace. sha256
// (truncated) rather than a seeded fast hash: deterministic across
// processes, architectures and Go releases.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// buildRing places replicas virtual points per backend.
func buildRing(backends []string, replicas int) *ring {
	r := &ring{n: len(backends)}
	for i, url := range backends {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", url, v)),
				backend: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].backend < r.points[b].backend // total order: ties cannot flap
	})
	return r
}

// owner returns the backend index a key routes to.
func (r *ring) owner(key string) int {
	return r.points[r.search(key)].backend
}

// search finds the first ring point clockwise of the key's hash.
func (r *ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return i
}

// successorsOf returns the indices of backend b's first r replication
// targets: its successors on a backend-level ring (one point per
// backend, not the virtual-node ring — replica placement must depend
// only on the membership set, never on the virtual-node count). The
// result holds min(r, n-1) distinct indices in ring order, never
// includes b itself (a backend can never be told to replicate onto
// itself), and is empty for a single-backend fleet, r <= 0 or an
// out-of-range b. Wrap-around is by ring position, so small fleets
// (n <= r) simply yield every other backend exactly once.
func successorsOf(backends []string, b, r int) []int {
	n := len(backends)
	if n < 2 || b < 0 || b >= n || r <= 0 {
		return nil
	}
	if r > n-1 {
		r = n - 1
	}
	type point struct {
		hash uint64
		i    int
	}
	pts := make([]point, n)
	for i, url := range backends {
		pts[i] = point{hash: hash64(url), i: i}
	}
	sort.Slice(pts, func(a, c int) bool {
		if pts[a].hash != pts[c].hash {
			return pts[a].hash < pts[c].hash
		}
		return backends[pts[a].i] < backends[pts[c].i] // total order: ties cannot flap
	})
	for k, p := range pts {
		if p.i == b {
			succ := make([]int, 0, r)
			for step := 1; step <= r; step++ {
				succ = append(succ, pts[(k+step)%n].i)
			}
			return succ
		}
	}
	return nil
}

// sequence returns every distinct backend in ring order starting at the
// key's owner: the failover order when backends are unreachable.
func (r *ring) sequence(key string) []int {
	seq := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i, start := 0, r.search(key); i < len(r.points) && len(seq) < r.n; i++ {
		b := r.points[(start+i)%len(r.points)].backend
		if !seen[b] {
			seen[b] = true
			seq = append(seq, b)
		}
	}
	return seq
}
