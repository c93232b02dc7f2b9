package nocmap

import (
	"fmt"

	"repro/internal/core"
)

// SplitPolicy selects how "nmap-split" may divide a commodity's traffic
// across paths.
type SplitPolicy int

const (
	// SplitAllPaths lets every commodity use every link (the paper's
	// NMAPTA): lowest bandwidth requirement, longest detours allowed.
	SplitAllPaths SplitPolicy = iota
	// SplitMinPaths restricts each commodity to its minimum paths (the
	// paper's NMAPTM): every packet sees equal hop delay.
	SplitMinPaths
)

// String names the splitting regime.
func (s SplitPolicy) String() string {
	switch s {
	case SplitAllPaths:
		return "all-paths"
	case SplitMinPaths:
		return "min-paths"
	default:
		return fmt.Sprintf("SplitPolicy(%d)", int(s))
	}
}

// mode translates the public policy to the engine's.
func (s SplitPolicy) mode() core.SplitMode {
	if s == SplitMinPaths {
		return core.SplitMinPaths
	}
	return core.SplitAllPaths
}

// Event is one progress report from a running solve. Phase is
// algorithm-specific ("initialize", "sweep", "slack", "cost", "expand");
// Step/Total describe the phase's progress (Total may be 0 when the
// algorithm cannot bound it); Best is the incumbent objective value, or
// +Inf while no feasible incumbent exists.
type Event struct {
	Algorithm string
	Phase     string
	Step      int
	Total     int
	Best      float64
}

// Options is the resolved configuration of one Solve call. Algorithms
// registered via Register receive it through the Request; most callers
// never construct one and use the With... functional options instead.
type Options struct {
	// Algorithm is the registry name to run; Solve defaults it to
	// "nmap-single".
	Algorithm string
	// Workers sets refinement/search parallelism: 0 or 1 sequential,
	// n > 1 a bounded pool, negative one worker per CPU. Every setting
	// produces bit-identical mappings.
	Workers int
	// Split selects the traffic-splitting regime for "nmap-split".
	Split SplitPolicy
	// BandwidthCap, when positive, overrides every link's bandwidth
	// (MB/s) for this solve.
	BandwidthCap float64
	// FastQueue opts the "pbb" baseline into its faster bounded queue
	// (deterministic, but may retain different equal-bound search nodes
	// than the historical queue the reproductions pin).
	FastQueue bool
	// MaxQueue/MaxExpand bound the "pbb" search; zero keeps the
	// defaults.
	MaxQueue  int
	MaxExpand int
	// Progress, when non-nil, receives Events while the solver runs, on
	// the solver's goroutine.
	Progress func(Event)
}

// Option is a functional option for Solve.
type Option func(*Options)

// WithAlgorithm selects the mapping algorithm by registry name; see
// Algorithms for what is available ("nmap-single", "nmap-split", "pmap",
// "gmap", "pbb" are built in).
func WithAlgorithm(name string) Option { return func(o *Options) { o.Algorithm = name } }

// WithWorkers sets the parallelism of the refinement sweeps and the PBB
// child evaluation: 0 or 1 sequential, n > 1 a bounded pool of n
// workers, negative one per CPU. Results are bit-identical across every
// setting.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithSplitPolicy selects how "nmap-split" may split traffic across
// paths; the default is SplitAllPaths.
func WithSplitPolicy(s SplitPolicy) Option { return func(o *Options) { o.Split = s } }

// WithBandwidthCap overrides every link's bandwidth (MB/s) for this
// solve, leaving the Problem untouched. Zero (the default) means no
// override; negative values are rejected by Solve with
// ErrInvalidBandwidth. Capped topologies are interned like decoded ones:
// solves with the same cap on the same small mesh or torus share one
// immutable Topology.
func WithBandwidthCap(bw float64) Option { return func(o *Options) { o.BandwidthCap = bw } }

// WithFastQueue opts the "pbb" baseline into its O(log n)-eviction
// bounded queue — deterministic and ~4x faster, but free to retain
// different equal-bound nodes than the historical queue, so reproduction
// runs leave it off.
func WithFastQueue(on bool) Option { return func(o *Options) { o.FastQueue = on } }

// WithPBBBudget bounds the "pbb" partial branch-and-bound search: the
// priority queue length and the number of expanded tree nodes. Zero
// keeps the respective default.
func WithPBBBudget(maxQueue, maxExpand int) Option {
	return func(o *Options) {
		o.MaxQueue = maxQueue
		o.MaxExpand = maxExpand
	}
}

// WithProgress streams solver progress to fn. The callback runs on the
// solver's goroutine between evaluation batches: keep it cheap, and do
// not call back into the solve.
func WithProgress(fn func(Event)) Option { return func(o *Options) { o.Progress = fn } }

// defaultOptions is the configuration Solve starts from.
func defaultOptions() Options {
	return Options{Algorithm: "nmap-single", Split: SplitAllPaths}
}
