// Package graph provides directed weighted graphs, the application core
// graph abstraction used throughout the NMAP reproduction, generic
// shortest-path algorithms and random core-graph generation (the stand-in
// for the LEDA graph package used by the paper).
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is a directed weighted edge between two vertices identified by
// dense integer IDs.
type Edge struct {
	From   int
	To     int
	Weight float64
}

// Digraph is a directed graph with float64 edge weights and dense vertex
// IDs 0..N-1. The zero value is an empty graph; use AddVertex/AddEdge to
// build it. Parallel edges between the same ordered pair are merged by
// summing their weights.
type Digraph struct {
	n     int
	out   [][]Edge
	in    [][]Edge
	index map[[2]int]int // (from,to) -> position in out[from]
}

// NewDigraph returns a directed graph with n vertices and no edges.
func NewDigraph(n int) *Digraph {
	g := &Digraph{}
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	return g
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// AddVertex appends a new vertex and returns its ID.
func (g *Digraph) AddVertex() int {
	id := g.n
	g.n++
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge inserts a directed edge from -> to with weight w. Adding an edge
// that already exists adds w to its weight. Self-loops are rejected.
func (g *Digraph) AddEdge(from, to int, w float64) error {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on vertex %d", from)
	}
	if g.index == nil {
		g.index = make(map[[2]int]int)
	}
	key := [2]int{from, to}
	if pos, ok := g.index[key]; ok {
		g.out[from][pos].Weight += w
		for i := range g.in[to] {
			if g.in[to][i].From == from {
				g.in[to][i].Weight += w
				break
			}
		}
		return nil
	}
	g.index[key] = len(g.out[from])
	g.out[from] = append(g.out[from], Edge{From: from, To: to, Weight: w})
	g.in[to] = append(g.in[to], Edge{From: from, To: to, Weight: w})
	return nil
}

// reserve sizes the edge lists of an edgeless graph for the edges
// ends lists as (from, to) pairs, so adding them appends in place.
func (g *Digraph) reserve(ends []int) {
	if len(ends) == 0 {
		return
	}
	deg := make([]int, 2*g.n) // out-degrees, then in-degrees
	for i := 0; i < len(ends); i += 2 {
		deg[ends[i]]++
		deg[g.n+ends[i+1]]++
	}
	slab := make([]Edge, len(ends))
	for v := 0; v < g.n; v++ {
		d := deg[v]
		g.out[v], slab = slab[:0:d], slab[d:]
		d = deg[g.n+v]
		g.in[v], slab = slab[:0:d], slab[d:]
	}
	g.index = make(map[[2]int]int, len(ends)/2)
}

// MustAddEdge is AddEdge but panics on error; intended for statically
// known-good construction such as benchmark graphs.
func (g *Digraph) MustAddEdge(from, to int, w float64) {
	if err := g.AddEdge(from, to, w); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the directed edge from -> to exists.
func (g *Digraph) HasEdge(from, to int) bool {
	if g.index == nil {
		return false
	}
	_, ok := g.index[[2]int{from, to}]
	return ok
}

// Weight returns the weight of edge from -> to, or 0 if absent.
func (g *Digraph) Weight(from, to int) float64 {
	if g.index == nil {
		return 0
	}
	if pos, ok := g.index[[2]int{from, to}]; ok {
		return g.out[from][pos].Weight
	}
	return 0
}

// Out returns the outgoing edges of v. The slice must not be modified.
func (g *Digraph) Out(v int) []Edge { return g.out[v] }

// In returns the incoming edges of v. The slice must not be modified.
func (g *Digraph) In(v int) []Edge { return g.in[v] }

// Edges returns all edges sorted by (From, To) for deterministic iteration.
func (g *Digraph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.n; v++ {
		es = append(es, g.out[v]...)
	}
	slices.SortFunc(es, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return es
}

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int {
	m := 0
	for v := 0; v < g.n; v++ {
		m += len(g.out[v])
	}
	return m
}

// TotalWeight returns the sum of all edge weights.
func (g *Digraph) TotalWeight() float64 {
	t := 0.0
	for v := 0; v < g.n; v++ {
		for _, e := range g.out[v] {
			t += e.Weight
		}
	}
	return t
}

// Degree returns the total degree (in + out edge count) of v.
func (g *Digraph) Degree(v int) int { return len(g.out[v]) + len(g.in[v]) }

// VertexComm returns the total communication touching v: the sum of
// weights of all edges incident to v in either direction.
func (g *Digraph) VertexComm(v int) float64 {
	t := 0.0
	for _, e := range g.out[v] {
		t += e.Weight
	}
	for _, e := range g.in[v] {
		t += e.Weight
	}
	return t
}

// Undirected returns a new graph in which each pair of vertices connected
// in either direction is connected by a pair of opposite edges whose weight
// is the sum of the directed weights between the pair (the makeundirected()
// step of the NMAP pseudocode).
func (g *Digraph) Undirected() *Digraph {
	u := NewDigraph(g.n)
	seen := make(map[[2]int]bool)
	for v := 0; v < g.n; v++ {
		for _, e := range g.out[v] {
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if seen[key] {
				continue
			}
			seen[key] = true
			w := g.Weight(a, b) + g.Weight(b, a)
			u.MustAddEdge(a, b, w)
			u.MustAddEdge(b, a, w)
		}
	}
	return u
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := NewDigraph(g.n)
	for v := 0; v < g.n; v++ {
		for _, e := range g.out[v] {
			c.MustAddEdge(e.From, e.To, e.Weight)
		}
	}
	return c
}

// Connected reports whether the graph is weakly connected (every vertex
// reachable from vertex 0 ignoring edge direction). The empty graph is
// considered connected.
func (g *Digraph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[v] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
		for _, e := range g.in[v] {
			if !seen[e.From] {
				seen[e.From] = true
				count++
				stack = append(stack, e.From)
			}
		}
	}
	return count == g.n
}
