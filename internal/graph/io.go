package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Wire is the JSON form of a core graph: its name, the cores in ID
// order and one entry per flow. ReadJSON, WriteJSON and the problem
// codec of the public API all go through it.
type Wire struct {
	Name  string     `json:"name"`
	Cores []string   `json:"cores"`
	Edges []WireEdge `json:"edges"`
}

// WireEdge is one flow of a Wire graph.
type WireEdge struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	BW   float64 `json:"bw"`
}

// ToWire returns the JSON form of the core graph: edges in (From, To)
// order, sharing the graph's core names.
func (cg *CoreGraph) ToWire() Wire {
	out := Wire{Name: cg.Name, Cores: cg.Cores}
	es := cg.Edges()
	if len(es) > 0 { // an edgeless graph keeps "edges": null
		out.Edges = make([]WireEdge, 0, len(es))
	}
	for _, e := range es {
		out.Edges = append(out.Edges, WireEdge{
			From: cg.Cores[e.From],
			To:   cg.Cores[e.To],
			BW:   e.Weight,
		})
	}
	return out
}

// CoreGraph builds and validates the graph the wire form describes:
// cores listed explicitly, or implied by edge endpoints. A duplicate
// core, a non-positive bandwidth or a self-loop is an error; a missing
// name becomes "unnamed".
func (w Wire) CoreGraph() (*CoreGraph, error) {
	name := w.Name
	if name == "" {
		name = "unnamed"
	}
	n := len(w.Cores)
	cg := &CoreGraph{Digraph: &Digraph{}, Name: name, byName: make(map[string]int, n)}
	cg.Cores, cg.out, cg.in = slices.Grow(cg.Cores, n), slices.Grow(cg.out, n), slices.Grow(cg.in, n)
	for _, c := range w.Cores {
		if cg.CoreID(c) >= 0 {
			return nil, fmt.Errorf("graph: duplicate core %q", c)
		}
		cg.AddCore(c)
	}
	// Resolve every endpoint first, adding implied cores in the order
	// Connect would, so each vertex's edge lists are allocated once.
	ends := make([]int, 2*len(w.Edges))
	for i, e := range w.Edges {
		if e.BW <= 0 {
			return nil, fmt.Errorf("graph: edge %s->%s has non-positive bandwidth %g", e.From, e.To, e.BW)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self-loop on %q", e.From)
		}
		for j, c := range [2]string{e.From, e.To} {
			id := cg.CoreID(c)
			if id < 0 {
				id = cg.AddCore(c)
			}
			ends[2*i+j] = id
		}
	}
	cg.reserve(ends)
	for i, e := range w.Edges {
		cg.MustAddEdge(ends[2*i], ends[2*i+1], e.BW)
	}
	return cg, nil
}

// WriteJSON serializes the core graph as indented JSON.
func (cg *CoreGraph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cg.ToWire())
}

// ReadJSON parses a core graph from JSON produced by WriteJSON (or written
// by hand: cores listed explicitly, or implied by edge endpoints).
func ReadJSON(r io.Reader) (*CoreGraph, error) {
	var in Wire
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("graph: parsing core graph: %w", err)
	}
	return in.CoreGraph()
}
