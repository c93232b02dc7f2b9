package nocmap

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// decodeProblem decodes a wire problem with a fixed 3-core app.
func decodeProblem(t *testing.T, kind string, w, h int, bw float64) *Problem {
	t.Helper()
	body := fmt.Sprintf(`{"app":{"edges":[{"from":"a","to":"b","bw":100},{"from":"b","to":"c","bw":50}]},`+
		`"topology":{"kind":%q,"w":%d,"h":%d,"link_bw":%g}}`, kind, w, h, bw)
	var p Problem
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	return &p
}

func allLinksBW(t *testing.T, topo *Topology, want float64) {
	t.Helper()
	for _, l := range topo.Links() {
		if l.BW != want {
			t.Fatalf("%s: link %d BW %g, want %g", topo, l.ID, l.BW, want)
		}
	}
}

// TestTopologyInterning pins which topologies are shared: identical
// small specs decode onto one instance, any differing field gives
// another, a bandwidth cap gets its own (shared) instance and leaves the
// original untouched, and meshes beyond the intern cap — like those of
// NewMesh/NewTorus — are always fresh.
func TestTopologyInterning(t *testing.T) {
	// Start from an empty table so no eviction lands mid-test.
	interned.Lock()
	clear(interned.m)
	interned.Unlock()
	base := decodeProblem(t, "mesh", 4, 4, 1000).Topology()
	if got := decodeProblem(t, "mesh", 4, 4, 1000).Topology(); got != base {
		t.Fatal("identical specs decoded onto different topologies")
	}
	for _, other := range []*Problem{
		decodeProblem(t, "torus", 4, 4, 1000),
		decodeProblem(t, "mesh", 4, 3, 1000),
		decodeProblem(t, "mesh", 4, 4, 500),
	} {
		if other.Topology() == base {
			t.Fatalf("%s shares the 4x4 mesh at 1000 MB/s", other.Topology())
		}
	}

	capped, err := cappedTopology(base, 250)
	if err != nil {
		t.Fatal(err)
	}
	if capped == base {
		t.Fatal("a bandwidth cap returned the uncapped topology")
	}
	allLinksBW(t, capped, 250)
	allLinksBW(t, base, 1000)
	if again, _ := cappedTopology(base, 250); again != capped {
		t.Fatal("the same cap built a second topology")
	}
	if got := decodeProblem(t, "mesh", 4, 4, 250).Topology(); got != capped {
		t.Fatal("a decoded spec equal to a capped one did not share it")
	}
	if _, err := Solve(context.Background(), decodeProblem(t, "mesh", 4, 4, 1000), WithBandwidthCap(300)); err != nil {
		t.Fatal(err)
	}
	allLinksBW(t, base, 1000)

	big := decodeProblem(t, "mesh", 9, 9, 1000).Topology()
	if decodeProblem(t, "mesh", 9, 9, 1000).Topology() == big {
		t.Fatal("a 9x9 mesh (81 nodes, over the intern cap) was interned")
	}
	fresh, err := NewMesh(4, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == base {
		t.Fatal("NewMesh returned the interned topology")
	}
}

// TestConcurrentSolvesShareTopology solves distinct problems that share
// one interned topology from many goroutines at once (run it under
// -race): the shared quadrant caches fill concurrently, and every result
// must equal a solve of the same app on a private topology.
func TestConcurrentSolvesShareTopology(t *testing.T) {
	const n = 8
	problems := make([]*Problem, n)
	want := make([]*Result, n)
	for i := range problems {
		rng := rand.New(rand.NewSource(int64(i)))
		app := NewCoreGraph(fmt.Sprintf("shared-%d", i))
		for app.NumEdges() < 10 {
			a, b := rng.Intn(8), rng.Intn(7)
			if b >= a {
				b++
			}
			app.Connect(fmt.Sprintf("c%d", a), fmt.Sprintf("c%d", b), float64(5+rng.Intn(46)))
		}
		private, err := NewMesh(4, 4, 1000)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(app, private)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var shared Problem
		if err := json.Unmarshal(raw, &shared); err != nil {
			t.Fatal(err)
		}
		problems[i] = &shared
		if want[i], err = Solve(context.Background(), p, optsFor(i)...); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range problems[1:] {
		if p.Topology() != problems[0].Topology() {
			t.Fatal("decoded problems do not share one topology")
		}
	}
	var wg sync.WaitGroup
	for i, p := range problems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Solve(context.Background(), p, optsFor(i)...)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Assignment, want[i].Assignment) || got.Cost != want[i].Cost {
				t.Errorf("problem %d on the shared topology solved differently: %v vs %v",
					i, got.Assignment, want[i].Assignment)
			}
		}()
	}
	wg.Wait()
}

// optsFor alternates the two NMAP variants, so the shared quadrant
// caches are read by single-path routing and min-path splitting alike.
func optsFor(i int) []Option {
	if i%2 == 0 {
		return []Option{WithAlgorithm("nmap-single")}
	}
	return []Option{WithAlgorithm("nmap-split"), WithSplitPolicy(SplitMinPaths)}
}
