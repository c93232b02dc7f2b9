// Package topology models the NoC topology graph of the paper's
// Definition 2: 2-D mesh and torus networks with per-link bandwidth,
// node coordinates, minimal-hop distances, dimension-ordered (XY) routing
// and the quadrant subgraphs used by NMAP's shortest-path routine.
package topology

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
)

// Construction errors of NewMesh/NewTorus. Both are wrapped with the
// offending values, so callers match them with errors.Is.
var (
	// ErrInvalidDimensions is returned for degenerate geometries: either
	// dimension below 1, or a single-node network.
	ErrInvalidDimensions = errors.New("invalid dimensions")
	// ErrInvalidBandwidth is returned for a non-positive link bandwidth.
	ErrInvalidBandwidth = errors.New("link bandwidth must be positive")
)

// Kind selects the network family.
type Kind int

const (
	// MeshKind is a 2-D mesh (no wraparound links).
	MeshKind Kind = iota
	// TorusKind is a 2-D torus (wraparound links in both dimensions).
	TorusKind
)

// String names the topology family.
func (k Kind) String() string {
	switch k {
	case MeshKind:
		return "mesh"
	case TorusKind:
		return "torus"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Link is one directed NoC link f_{i,j} with its available bandwidth
// bw_{i,j} (MB/s).
type Link struct {
	ID   int // dense index into the topology's link list
	From int
	To   int
	BW   float64
}

// denseLimit caps the N*N table sizes precomputed per topology. Meshes
// up to 2048 nodes get O(1) dense lookups; anything larger falls back to
// the closed-form/map implementations so memory stays bounded.
const denseLimit = 2048

// quadCache holds the lazily computed quadrant data for one (src,dst)
// pair: the membership mask and the forward (toward-destination) links.
type quadCache struct {
	mask    []bool
	forward []int
}

// Topology is the NoC topology graph P(U,F). Nodes are numbered
// row-major: node = y*W + x.
//
// A Topology is immutable once built, and all its methods are safe for
// concurrent use: the dense tables are built at construction time and
// the per-pair quadrant caches are filled through atomic pointers
// (idempotent, so racing fills agree). Callers must not modify its
// exported fields or the slices it returns.
type Topology struct {
	Kind  Kind
	W, H  int
	links []Link
	// linkAt[from*N+to] is the link index, or -1; nil for huge networks
	// (beyond denseLimit), in which case linkMap is used instead.
	linkAt  []int32
	linkMap map[[2]int]int
	// hop[a*N+b] is the minimal hop count; nil for huge networks.
	hop []int32
	// quad[src*N+dst] caches quadrant masks and forward link lists; nil
	// for huge networks.
	quad []atomic.Pointer[quadCache]
	g    *graph.Digraph
}

// NewMesh returns a W x H mesh in which every directed link has bandwidth
// linkBW.
func NewMesh(w, h int, linkBW float64) (*Topology, error) {
	return build(MeshKind, w, h, linkBW)
}

// NewTorus returns a W x H torus in which every directed link has
// bandwidth linkBW. Wraparound links are only added when the dimension has
// at least 3 nodes (a 2-node ring would duplicate the direct link).
func NewTorus(w, h int, linkBW float64) (*Topology, error) {
	return build(TorusKind, w, h, linkBW)
}

func build(kind Kind, w, h int, linkBW float64) (*Topology, error) {
	if w < 1 || h < 1 || w*h < 2 {
		return nil, fmt.Errorf("topology: %w: %dx%d %s", ErrInvalidDimensions, w, h, kind)
	}
	if linkBW <= 0 {
		return nil, fmt.Errorf("topology: %w, got %g", ErrInvalidBandwidth, linkBW)
	}
	t := &Topology{Kind: kind, W: w, H: h}
	n := w * h
	if n <= denseLimit {
		t.linkAt = make([]int32, n*n)
		for i := range t.linkAt {
			t.linkAt[i] = -1
		}
	} else {
		t.linkMap = make(map[[2]int]int)
	}
	t.g = graph.NewDigraph(n)
	addPair := func(a, b int) {
		t.addLink(a, b, linkBW)
		t.addLink(b, a, linkBW)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				addPair(t.Node(x, y), t.Node(x+1, y))
			}
			if y+1 < h {
				addPair(t.Node(x, y), t.Node(x, y+1))
			}
		}
	}
	if kind == TorusKind {
		if w >= 3 {
			for y := 0; y < h; y++ {
				addPair(t.Node(w-1, y), t.Node(0, y))
			}
		}
		if h >= 3 {
			for x := 0; x < w; x++ {
				addPair(t.Node(x, h-1), t.Node(x, 0))
			}
		}
	}
	if n <= denseLimit {
		t.hop = make([]int32, n*n)
		for a := 0; a < n; a++ {
			ax, ay := t.XY(a)
			for b := 0; b < n; b++ {
				bx, by := t.XY(b)
				d := abs(t.wrapDelta(ax, bx, w)) + abs(t.wrapDelta(ay, by, h))
				t.hop[a*n+b] = int32(d)
			}
		}
		t.quad = make([]atomic.Pointer[quadCache], n*n)
	}
	return t, nil
}

func (t *Topology) addLink(from, to int, bw float64) {
	id := len(t.links)
	t.links = append(t.links, Link{ID: id, From: from, To: to, BW: bw})
	if t.linkAt != nil {
		t.linkAt[from*t.N()+to] = int32(id)
	} else {
		t.linkMap[[2]int{from, to}] = id
	}
	t.g.MustAddEdge(from, to, bw)
}

// N returns the number of nodes |U|.
func (t *Topology) N() int { return t.W * t.H }

// Node returns the node ID at coordinates (x, y).
func (t *Topology) Node(x, y int) int { return y*t.W + x }

// XY returns the coordinates of node u.
func (t *Topology) XY(u int) (x, y int) { return u % t.W, u / t.W }

// Links returns all directed links. The slice must not be modified.
func (t *Topology) Links() []Link { return t.links }

// NumLinks returns |F|.
func (t *Topology) NumLinks() int { return len(t.links) }

// LinkID returns the index of the directed link from -> to, or -1 if the
// nodes are not adjacent.
func (t *Topology) LinkID(from, to int) int {
	if t.linkAt != nil {
		return int(t.linkAt[from*t.N()+to])
	}
	if id, ok := t.linkMap[[2]int{from, to}]; ok {
		return id
	}
	return -1
}

// Link returns the link with the given ID.
func (t *Topology) Link(id int) Link { return t.links[id] }

// Graph exposes the topology as a Digraph whose edge weights are link
// bandwidths; useful for generic algorithms. Callers must not mutate it.
func (t *Topology) Graph() *graph.Digraph { return t.g }

// Neighbors returns the adjacent node IDs of u (the set Adj_i).
func (t *Topology) Neighbors(u int) []int {
	out := t.g.Out(u)
	ns := make([]int, len(out))
	for i, e := range out {
		ns[i] = e.To
	}
	return ns
}

// Degree returns the number of neighbors of u.
func (t *Topology) Degree(u int) int { return len(t.g.Out(u)) }

// wrapDelta returns the signed minimal displacement from a to b along a
// dimension of size n, honoring torus wraparound.
func (t *Topology) wrapDelta(a, b, n int) int {
	d := b - a
	if t.Kind == TorusKind && n >= 3 {
		half := n / 2
		for d > half {
			d -= n
		}
		for d < -half {
			d += n
		}
	}
	return d
}

// HopDist returns the minimal hop count dist(a,b) between nodes a and b.
func (t *Topology) HopDist(a, b int) int {
	if t.hop != nil {
		return int(t.hop[a*t.N()+b])
	}
	return t.hopDistSlow(a, b)
}

// hopDistSlow computes the hop distance from the closed form; it is the
// fallback for networks too large for the dense table and the reference
// the table is validated against in tests.
func (t *Topology) hopDistSlow(a, b int) int {
	ax, ay := t.XY(a)
	bx, by := t.XY(b)
	dx := t.wrapDelta(ax, bx, t.W)
	dy := t.wrapDelta(ay, by, t.H)
	return abs(dx) + abs(dy)
}

// MaxDegreeNode returns the node with the maximum number of neighbors,
// breaking ties by lowest node ID (used by initialize() to seed the
// placement at a central node).
func (t *Topology) MaxDegreeNode() int {
	best, bestDeg := 0, -1
	for u := 0; u < t.N(); u++ {
		if d := t.Degree(u); d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best
}

// FitMesh returns mesh dimensions (w, h) able to hold n cores, as close to
// square as possible with w >= h (e.g. 14 cores -> 4x4, 6 -> 3x2).
func FitMesh(n int) (w, h int) {
	if n < 1 {
		return 1, 1
	}
	w = 1
	for w*w < n {
		w++
	}
	h = (n + w - 1) / w
	return w, h
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// String renders a short description such as "4x4 mesh (16 nodes, 48 links)".
func (t *Topology) String() string {
	return fmt.Sprintf("%dx%d %s (%d nodes, %d links)", t.W, t.H, t.Kind, t.N(), t.NumLinks())
}
