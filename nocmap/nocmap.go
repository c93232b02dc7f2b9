package nocmap

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/topology"
)

// The domain types are aliases of the engine's own, so values returned
// by the public API interoperate with everything else in it and carry
// their full method sets (CoreGraph.Connect, Topology.HopDist,
// Mapping.CommCost, ...).
type (
	// CoreGraph is the application model (paper Definition 1): a directed
	// graph of IP cores whose edge weights are communication bandwidth in
	// MB/s.
	CoreGraph = graph.CoreGraph
	// Commodity is one directed communication flow with its bandwidth,
	// endpoints translated to topology nodes.
	Commodity = mcf.Commodity
	// Topology is the NoC model (paper Definition 2): a 2-D mesh or torus
	// with per-link bandwidth.
	Topology = topology.Topology
	// Mapping is a placement of cores onto topology nodes (Eq. 1).
	Mapping = core.Mapping
	// App bundles a benchmark core graph with its recommended mesh size.
	App = apps.App
)

// Topology construction errors, re-exported for errors.Is matching.
var (
	ErrInvalidDimensions = topology.ErrInvalidDimensions
	ErrInvalidBandwidth  = topology.ErrInvalidBandwidth
)

// Problem construction errors, re-exported for errors.Is matching.
var (
	ErrNilInput            = core.ErrNilInput
	ErrEmptyApp            = core.ErrEmptyApp
	ErrTooManyCores        = core.ErrTooManyCores
	ErrDuplicateCore       = core.ErrDuplicateCore
	ErrInfeasibleBandwidth = core.ErrInfeasibleBandwidth
)

// NewCoreGraph returns an empty named application graph; add traffic
// with Connect (which creates cores on first use and panics on a
// self-loop) or its error-returning twin AddFlow for untrusted input.
func NewCoreGraph(name string) *CoreGraph { return graph.NewCoreGraph(name) }

// NewMesh returns a W x H mesh in which every directed link has
// bandwidth linkBW (MB/s). Invalid geometry or bandwidth fail with
// errors matching ErrInvalidDimensions / ErrInvalidBandwidth.
func NewMesh(w, h int, linkBW float64) (*Topology, error) { return topology.NewMesh(w, h, linkBW) }

// NewTorus is NewMesh with wraparound links in both dimensions.
func NewTorus(w, h int, linkBW float64) (*Topology, error) { return topology.NewTorus(w, h, linkBW) }

// buildTopology dispatches on the topology kind — the one place the
// kind-to-constructor mapping lives (bandwidth capping and JSON
// deserialization both go through it). It interns topologies of at most
// internNodes nodes: identical specs share one immutable instance, whose
// dense tables are built once and whose quadrant caches stay warm.
func buildTopology(kind topology.Kind, w, h int, linkBW float64) (*Topology, error) {
	build := NewMesh
	if kind == topology.TorusKind {
		build = NewTorus
	}
	if w < 1 || h < 1 || w > internNodes/h {
		return build(w, h, linkBW)
	}
	spec := topoSpec{kind, w, h, math.Float64bits(linkBW)}
	interned.Lock()
	defer interned.Unlock()
	if t, ok := interned.m[spec]; ok {
		return t, nil
	}
	t, err := build(w, h, linkBW)
	if err != nil {
		return nil, err
	}
	if len(interned.m) >= internEntries {
		clear(interned.m)
	}
	interned.m[spec] = t
	return t, nil
}

// A fully warm quadrant cache holds about 17·n³ bytes (4.5 MB at 64
// nodes, an 8x8 mesh). At most internEntries topologies are kept; a full
// table is emptied before the next insert.
const internNodes, internEntries = 64, 16

// topoSpec keys the intern table; the bandwidth is compared bit for bit.
type topoSpec struct {
	kind topology.Kind
	w, h int
	bw   uint64
}

var interned = struct {
	sync.Mutex
	m map[topoSpec]*Topology
}{m: map[topoSpec]*Topology{}}

// FitMesh returns mesh dimensions (w, h) able to hold n cores, as close
// to square as possible with w >= h.
func FitMesh(n int) (w, h int) { return topology.FitMesh(n) }

// LoadApp resolves an application spec the way the CLI tools do:
//
//	vopd | mpeg4 | pip | mwa | mwag | dsd | dsp   benchmark applications
//	random:N[:seed]                               random graph with N cores
//	path/to/graph.json                            core graph JSON file
func LoadApp(spec string) (App, error) { return cli.LoadApp(spec) }

// ParseMesh parses a "WxH" mesh spec ("4x4"); an empty string returns
// ok=false so callers can fall back to an application's recommended mesh.
func ParseMesh(spec string) (w, h int, ok bool, err error) { return cli.ParseMesh(spec) }

// Benchmarks returns the paper's benchmark applications: the six video
// applications of the evaluation (VOPD, MPEG4, PIP, MWA, MWAG, DSD)
// followed by the Section 7.2 DSP filter.
func Benchmarks() []App { return append(apps.VideoApps(), apps.DSP()) }

// RandomApp returns the Table 2 style random application graph with the
// given core count and seed, on its recommended mesh.
func RandomApp(cores int, seed int64) (App, error) { return apps.Random(cores, seed) }

// Problem is a mapping problem: which topology node should each
// application core occupy? It is immutable once constructed (the core
// graph and topology must not be mutated afterwards), safe for
// concurrent Solve calls, and serializes to JSON.
type Problem struct {
	app  *CoreGraph
	topo *Topology

	// eng is the shared engine for read-only operations (scoring,
	// bandwidth sizing, commodity translation), built and validated at
	// construction. Solve builds a private engine per call instead, so
	// per-call knobs such as Workers never race between concurrent
	// solves.
	eng *core.Problem
}

// NewProblem validates the pairing and returns the problem. Failures are
// typed and errors.Is-matchable: ErrNilInput, ErrEmptyApp,
// ErrTooManyCores, ErrDuplicateCore and ErrInfeasibleBandwidth (some
// core's traffic exceeds what any topology node can carry, so no mapping
// — even with traffic splitting — could route it).
func NewProblem(app *CoreGraph, topo *Topology) (*Problem, error) {
	eng, err := core.NewProblem(app, topo)
	if err != nil {
		return nil, err
	}
	return &Problem{app: app, topo: topo, eng: eng}, nil
}

// App returns the application core graph.
func (p *Problem) App() *CoreGraph { return p.app }

// Topology returns the NoC topology.
func (p *Problem) Topology() *Topology { return p.topo }

// engine returns the shared read-only engine.
func (p *Problem) engine() *core.Problem { return p.eng }

// solverEngine builds a private engine for one Solve call, so per-call
// options never race across concurrent solves of the same Problem.
func (p *Problem) solverEngine(topo *Topology, o *Options) (*core.Problem, error) {
	eng, err := core.NewProblem(p.app, topo)
	if err != nil {
		return nil, err
	}
	eng.Workers = o.Workers
	return eng, nil
}

// MappingOf rebuilds a live Mapping from a result's assignment (core
// index -> node), validating it against this problem. Use it to revive
// mappings from deserialized Results.
func (p *Problem) MappingOf(assignment []int) (*Mapping, error) {
	if len(assignment) != p.app.N() {
		return nil, fmt.Errorf("nocmap: assignment covers %d cores, problem has %d",
			len(assignment), p.app.N())
	}
	m := core.NewMapping(p.engine())
	for v, u := range assignment {
		if err := m.Place(v, u); err != nil {
			return nil, fmt.Errorf("nocmap: invalid assignment: %w", err)
		}
	}
	return m, nil
}

// Commodities returns the application's communication flows with
// endpoints translated to topology nodes under mapping m — the input to
// the flow solvers and the simulator.
func (p *Problem) Commodities(m *Mapping) []Commodity {
	return p.engine().Commodities(m)
}
