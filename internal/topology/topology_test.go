package topology

import (
	"testing"
	"testing/quick"
)

func TestMeshConstruction(t *testing.T) {
	m, err := NewMesh(4, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 16 {
		t.Fatalf("N = %d, want 16", m.N())
	}
	// 4x4 mesh: 2*( (4-1)*4 + 4*(4-1) ) = 48 directed links.
	if m.NumLinks() != 48 {
		t.Fatalf("links = %d, want 48", m.NumLinks())
	}
	if m.LinkID(0, 1) < 0 || m.LinkID(1, 0) < 0 {
		t.Fatal("adjacent nodes missing links")
	}
	if m.LinkID(0, 2) >= 0 {
		t.Fatal("non-adjacent nodes have a link")
	}
	if m.LinkID(0, 4) < 0 {
		t.Fatal("vertical link missing")
	}
}

func TestMeshErrors(t *testing.T) {
	if _, err := NewMesh(0, 4, 100); err == nil {
		t.Error("0-width mesh accepted")
	}
	if _, err := NewMesh(1, 1, 100); err == nil {
		t.Error("1x1 mesh accepted")
	}
	if _, err := NewMesh(2, 2, -5); err == nil {
		t.Error("negative bandwidth accepted")
	}
}

func TestNodeXYRoundTrip(t *testing.T) {
	m, _ := NewMesh(5, 3, 1)
	for u := 0; u < m.N(); u++ {
		x, y := m.XY(u)
		if m.Node(x, y) != u {
			t.Fatalf("round trip failed for %d -> (%d,%d)", u, x, y)
		}
	}
}

func TestHopDistMesh(t *testing.T) {
	m, _ := NewMesh(4, 4, 1)
	if d := m.HopDist(m.Node(0, 0), m.Node(3, 3)); d != 6 {
		t.Fatalf("corner-to-corner = %d, want 6", d)
	}
	if d := m.HopDist(5, 5); d != 0 {
		t.Fatalf("self distance = %d, want 0", d)
	}
	if d := m.HopDist(m.Node(1, 1), m.Node(2, 1)); d != 1 {
		t.Fatalf("adjacent = %d, want 1", d)
	}
}

func TestHopDistTorus(t *testing.T) {
	tor, err := NewTorus(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Wraparound shortens corner-to-corner to 1+1 = 2.
	if d := tor.HopDist(tor.Node(0, 0), tor.Node(3, 3)); d != 2 {
		t.Fatalf("torus corner-to-corner = %d, want 2", d)
	}
	// 4x4 torus: 48 mesh links + 8 directed wrap links per dimension = 64.
	if tor.NumLinks() != 64 {
		t.Fatalf("torus links = %d, want 64", tor.NumLinks())
	}
}

func TestMaxDegreeNode(t *testing.T) {
	m, _ := NewMesh(4, 4, 1)
	u := m.MaxDegreeNode()
	if m.Degree(u) != 4 {
		t.Fatalf("max degree node has degree %d, want 4", m.Degree(u))
	}
	m2, _ := NewMesh(2, 2, 1)
	if m2.Degree(m2.MaxDegreeNode()) != 2 {
		t.Fatal("2x2 mesh max degree should be 2")
	}
}

func TestFitMesh(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {8, 3, 3},
		{9, 3, 3}, {12, 4, 3}, {14, 4, 4}, {16, 4, 4}, {25, 5, 5},
		{26, 6, 5}, {65, 9, 8},
	}
	for _, c := range cases {
		w, h := FitMesh(c.n)
		if w*h < c.n {
			t.Errorf("FitMesh(%d) = %dx%d too small", c.n, w, h)
		}
		if w != c.w || h != c.h {
			t.Errorf("FitMesh(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

func TestXYRouteIsMinimalAndValid(t *testing.T) {
	m, _ := NewMesh(5, 4, 1)
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % m.N()
		b := int(bRaw) % m.N()
		p := m.XYRoute(a, b)
		if p[0] != a || p[len(p)-1] != b {
			return false
		}
		if len(p)-1 != m.HopDist(a, b) {
			return false
		}
		return m.PathLinks(p) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestXYRouteTorusWraps(t *testing.T) {
	tor, _ := NewTorus(5, 5, 1)
	p := tor.XYRoute(tor.Node(0, 0), tor.Node(4, 0))
	if len(p) != 2 {
		t.Fatalf("torus XY route should wrap: %v", p)
	}
}

func TestQuadrantContainsAllMinimalPaths(t *testing.T) {
	m, _ := NewMesh(4, 4, 1)
	src, dst := m.Node(3, 2), m.Node(1, 0) // the paper's v14 -> v9 example shape
	in := m.Quadrant(src, dst)
	count := 0
	for _, b := range in {
		if b {
			count++
		}
	}
	if count != 9 { // 3x3 rectangle
		t.Fatalf("quadrant size = %d, want 9", count)
	}
	if !in[src] || !in[dst] {
		t.Fatal("quadrant missing endpoints")
	}
	if in[m.Node(0, 0)] {
		t.Fatal("quadrant includes node outside rectangle")
	}
}

func TestQuadrantLinksAreForward(t *testing.T) {
	m, _ := NewMesh(4, 4, 1)
	src, dst := m.Node(0, 0), m.Node(2, 2)
	ids := m.QuadrantLinks(src, dst)
	// 3x3 rectangle: forward links = 2 dims * 2 per row/col... verify each
	// link strictly decreases distance to dst.
	if len(ids) == 0 {
		t.Fatal("no quadrant links")
	}
	for _, id := range ids {
		l := m.Link(id)
		if m.HopDist(l.To, dst) >= m.HopDist(l.From, dst) {
			t.Fatalf("link %d->%d not forward", l.From, l.To)
		}
	}
	// Exactly dx*(dy+1) + dy*(dx+1) = 2*3 + 2*3 = 12 forward links.
	if len(ids) != 12 {
		t.Fatalf("forward link count = %d, want 12", len(ids))
	}
}

func TestQuadrantDegenerate(t *testing.T) {
	m, _ := NewMesh(4, 4, 1)
	// Same row: quadrant is the line segment between them.
	in := m.Quadrant(m.Node(0, 1), m.Node(3, 1))
	count := 0
	for _, b := range in {
		if b {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("line quadrant size = %d, want 4", count)
	}
	// src == dst: only that node.
	in = m.Quadrant(5, 5)
	for u, b := range in {
		if b != (u == 5) {
			t.Fatalf("self quadrant wrong at %d", u)
		}
	}
}

func TestPathLinksRejectsNonAdjacent(t *testing.T) {
	m, _ := NewMesh(4, 4, 1)
	if m.PathLinks([]int{0, 5}) != nil {
		t.Fatal("diagonal hop accepted")
	}
	if got := m.PathLinks([]int{7}); got == nil || len(got) != 0 {
		t.Fatal("single-node path should yield empty link list")
	}
}

func TestKindString(t *testing.T) {
	if MeshKind.String() != "mesh" || TorusKind.String() != "torus" {
		t.Fatal("Kind.String wrong")
	}
}
