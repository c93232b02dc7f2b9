package shard

import (
	"fmt"
	"math/rand"
	"testing"
)

func syntheticBackends(n int) []string {
	backends := make([]string, n)
	for i := range backends {
		backends[i] = fmt.Sprintf("http://backend-%02d:8537", i)
	}
	return backends
}

// TestReplicationSuccessorPlacement pins the replica-placement
// properties promotion depends on: every backend's successor is a
// valid index, is never the backend itself (a primary must not be its
// own replica), and the URL->URL successor mapping is a pure function
// of the membership SET — independent of the order the backends were
// listed in, so a router restart with a reordered -backends flag cannot
// silently re-home every replica.
func TestReplicationSuccessorPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 12; n++ {
		backends := syntheticBackends(n)
		succOf := map[string]string{}
		for i := range backends {
			succ := successorsOf(backends, i, 1)
			if len(succ) != 1 {
				t.Fatalf("n=%d: successorsOf(%d, 1) = %v, want one holder", n, i, succ)
			}
			s := succ[0]
			if s < 0 || s >= n {
				t.Fatalf("n=%d: successor(%d) = %d out of range", n, i, s)
			}
			if s == i {
				t.Fatalf("n=%d: backend %d is its own replica target", n, i)
			}
			succOf[backends[i]] = backends[s]
		}
		// Successors must form a single cycle covering every backend:
		// each backend holds exactly one other's replicas, so no backend
		// is double-burdened and none is left unreplicated.
		holds := map[string]int{}
		for _, s := range succOf {
			holds[s]++
		}
		for _, b := range backends {
			if holds[b] != 1 {
				t.Fatalf("n=%d: backend %s holds replicas for %d primaries, want 1", n, b, holds[b])
			}
		}
		// Order independence: shuffle the list, the mapping stays.
		shuffled := append([]string(nil), backends...)
		rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		for i, b := range shuffled {
			s := successorsOf(shuffled, i, 1)[0]
			if shuffled[s] != succOf[b] {
				t.Fatalf("n=%d: successor of %s changed with list order: %s vs %s",
					n, b, shuffled[s], succOf[b])
			}
		}
	}
}

// TestReplicationSuccessorDegenerateRings pins the two smallest fleets:
// a single backend has no successor (replication is off, not
// self-directed), and a two-backend fleet replicates symmetrically —
// each is the other's follower.
func TestReplicationSuccessorDegenerateRings(t *testing.T) {
	if got := successorsOf(syntheticBackends(1), 0, 1); len(got) != 0 {
		t.Fatalf("single backend: successors = %v, want none", got)
	}
	two := syntheticBackends(2)
	if got := successorsOf(two, 0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("two backends: successorsOf(0) = %v, want [1]", got)
	}
	if got := successorsOf(two, 1, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("two backends: successorsOf(1) = %v, want [0]", got)
	}
	if got := successorsOf(two, 2, 1); len(got) != 0 {
		t.Fatalf("out-of-range backend: successors = %v, want none", got)
	}
}

// TestSuccessorsOfProperties pins the replication-factor generalisation
// of successor placement for R in {1,2,3}: the holder set has exactly
// min(R, n-1) members, every member is a valid index, distinct from
// every other and never the backend itself, the first member agrees
// with the r=1 successor, and the whole ordered set
// is a pure function of the membership SET — shuffling the backend
// list permutes indices but maps to the same URLs in the same order.
func TestSuccessorsOfProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, r := range []int{1, 2, 3} {
		for n := 2; n <= 12; n++ {
			backends := syntheticBackends(n)
			want := r
			if n-1 < want {
				want = n - 1 // fan-out caps at fleet size - 1
			}
			holdersOf := map[string][]string{}
			for i := range backends {
				succ := successorsOf(backends, i, r)
				if len(succ) != want {
					t.Fatalf("r=%d n=%d: successorsOf(%d) has %d holders, want %d",
						r, n, i, len(succ), want)
				}
				seen := map[int]bool{}
				urls := make([]string, 0, len(succ))
				for _, s := range succ {
					if s < 0 || s >= n {
						t.Fatalf("r=%d n=%d: successorsOf(%d) holder %d out of range", r, n, i, s)
					}
					if s == i {
						t.Fatalf("r=%d n=%d: backend %d is its own replica holder", r, n, i)
					}
					if seen[s] {
						t.Fatalf("r=%d n=%d: successorsOf(%d) repeats holder %d", r, n, i, s)
					}
					seen[s] = true
					urls = append(urls, backends[s])
				}
				if first := successorsOf(backends, i, 1)[0]; backends[first] != urls[0] {
					t.Fatalf("r=%d n=%d: first holder %s disagrees with the r=1 successor %s",
						r, n, urls[0], backends[first])
				}
				holdersOf[backends[i]] = urls
			}
			// Order independence: shuffle the list; every backend's
			// ordered holder set (as URLs) must be unchanged.
			shuffled := append([]string(nil), backends...)
			rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			for i, b := range shuffled {
				succ := successorsOf(shuffled, i, r)
				for k, s := range succ {
					if shuffled[s] != holdersOf[b][k] {
						t.Fatalf("r=%d n=%d: holder %d of %s changed with list order: %s vs %s",
							r, n, k, b, shuffled[s], holdersOf[b][k])
					}
				}
			}
		}
	}
}

// TestSuccessorsOfDegenerate pins the edges: a single backend has no
// holders at all (never self-replication), a two-backend fleet runs
// R=1 regardless of the requested factor, and nonsense inputs (zero
// factor, out-of-range backend) return nothing rather than panicking.
func TestSuccessorsOfDegenerate(t *testing.T) {
	if got := successorsOf(syntheticBackends(1), 0, 3); got != nil {
		t.Fatalf("single backend: holders = %v, want none", got)
	}
	two := syntheticBackends(2)
	for i := range two {
		got := successorsOf(two, i, 3)
		if len(got) != 1 || got[0] == i {
			t.Fatalf("two backends: successorsOf(%d, 3) = %v, want exactly the peer", i, got)
		}
	}
	if got := successorsOf(syntheticBackends(4), 1, 0); got != nil {
		t.Fatalf("zero factor: holders = %v, want none", got)
	}
	if got := successorsOf(syntheticBackends(4), 9, 2); got != nil {
		t.Fatalf("out-of-range backend: holders = %v, want none", got)
	}
	// n <= R: every other backend becomes a holder, exactly once.
	three := syntheticBackends(3)
	got := successorsOf(three, 0, 5)
	if len(got) != 2 || got[0] == got[1] || got[0] == 0 || got[1] == 0 {
		t.Fatalf("n=3 r=5: holders = %v, want both peers once each", got)
	}
}

// TestJoinMovesOnlyNewcomerRanges is the join half of the rebalancing
// contract (the leave half — survivors never exchange keys — is pinned
// by TestShardAssignmentStableAcrossRestarts): when a backend joins,
// every key that changes owner moves TO the newcomer. No key migrates
// between two backends that were both already present, so elastic join
// streams exactly the newcomer's ranges and nothing else.
func TestJoinMovesOnlyNewcomerRanges(t *testing.T) {
	for n := 1; n <= 8; n++ {
		backends := syntheticBackends(n)
		before := buildRing(backends, 64)
		grown := append(append([]string(nil), backends...), "http://newcomer:8537")
		after := buildRing(grown, 64)
		moved := 0
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key-%04d", i)
			ob, nb := before.owner(key), after.owner(key)
			if ob == nb {
				continue
			}
			moved++
			if nb != n { // the newcomer's index
				t.Fatalf("n=%d: key %s moved %s -> %s, neither the newcomer",
					n, key, backends[ob], grown[nb])
			}
		}
		if moved == 0 {
			t.Fatalf("n=%d: newcomer took no keys at all", n)
		}
		if frac := float64(moved) / 2000; frac > 2.5/float64(n+1) {
			t.Fatalf("n=%d: newcomer took %.0f%% of the keyspace, want ~%.0f%%",
				n, frac*100, 100.0/float64(n+1))
		}
	}
}
