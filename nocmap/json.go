package nocmap

import (
	"encoding/json"
	"fmt"

	"repro/internal/graph"
	"repro/internal/topology"
)

// jsonProblem is the wire form of a Problem: the core graph in the
// repository's JSON graph format plus a topology spec. Link bandwidth is
// uniform in the wire form.
type jsonProblem struct {
	App      graph.Wire   `json:"app"`
	Topology jsonTopology `json:"topology"`
}

type jsonTopology struct {
	Kind string  `json:"kind"` // "mesh" or "torus"
	W    int     `json:"w"`
	H    int     `json:"h"`
	BW   float64 `json:"link_bw"` // MB/s, uniform
}

// MarshalJSON serializes the problem as its application graph plus
// topology spec, in compact form: these bytes are the canonical form
// every derived hash keys on.
func (p *Problem) MarshalJSON() ([]byte, error) {
	if p.app == nil || p.topo == nil {
		return nil, fmt.Errorf("nocmap: marshaling uninitialized problem: %w", ErrNilInput)
	}
	bw := 0.0
	if links := p.topo.Links(); len(links) > 0 {
		bw = links[0].BW
	}
	return json.Marshal(jsonProblem{
		App: p.app.ToWire(),
		Topology: jsonTopology{
			Kind: p.topo.Kind.String(),
			W:    p.topo.W,
			H:    p.topo.H,
			BW:   bw,
		},
	})
}

// MaxWireNodes bounds the topology size accepted from the wire form
// (64k nodes — three orders of magnitude beyond the paper's largest
// mesh). Problems built programmatically via NewMesh/NewTorus are not
// capped; the limit exists so a few bytes of hostile JSON cannot make
// a deserializing service allocate an arbitrarily large topology.
const MaxWireNodes = 1 << 16

// UnmarshalJSON rebuilds the problem in one decoding pass, re-running
// the NewProblem validation on the decoded pair. Small topologies are
// interned: every problem decoded (or capped with WithBandwidthCap) onto
// the same kind, size and link bandwidth shares one immutable Topology
// and its warm routing caches.
func (p *Problem) UnmarshalJSON(data []byte) error {
	var in jsonProblem
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("nocmap: parsing problem: %w", err)
	}
	// The product check is in division form: w*h can overflow int on
	// 32-bit platforms, which would wave the hostile input through.
	if w, h := in.Topology.W, in.Topology.H; w > MaxWireNodes || h > MaxWireNodes ||
		(w > 0 && h > 0 && w > MaxWireNodes/h) {
		return fmt.Errorf("nocmap: topology %dx%d exceeds the %d-node wire limit: %w",
			w, h, MaxWireNodes, topology.ErrInvalidDimensions)
	}
	app, err := in.App.CoreGraph()
	if err != nil {
		return err
	}
	var kind topology.Kind
	switch in.Topology.Kind {
	case topology.TorusKind.String():
		kind = topology.TorusKind
	case topology.MeshKind.String(), "":
		kind = topology.MeshKind
	default:
		return fmt.Errorf("nocmap: unknown topology kind %q", in.Topology.Kind)
	}
	topo, err := buildTopology(kind, in.Topology.W, in.Topology.H, in.Topology.BW)
	if err != nil {
		return err
	}
	built, err := NewProblem(app, topo)
	if err != nil {
		return err
	}
	*p = *built
	return nil
}
