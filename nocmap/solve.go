package nocmap

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
)

// Solve maps the problem's cores onto its topology with the selected
// algorithm (default "nmap-single") and returns the scored result.
//
// The context governs the whole solve: cancellation or deadline expiry
// stops the iterating algorithms ("nmap-single", "nmap-split", "pbb")
// between candidate evaluations, which return the best valid mapping
// committed so far, marked Partial, together with ctx.Err(). The
// instantaneous baselines ("pmap", "gmap") have no intermediate state
// to salvage and return a nil Result with ctx.Err(). For a given
// problem and options the result is deterministic — including across
// WithWorkers settings.
func Solve(ctx context.Context, p *Problem, opts ...Option) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("nocmap: %w", ErrNilInput)
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	fn, ok := lookup(o.Algorithm)
	if !ok {
		return nil, fmt.Errorf("nocmap: %w %q (have %s)",
			ErrUnknownAlgorithm, o.Algorithm, strings.Join(Algorithms(), ", "))
	}
	topo := p.topo
	if o.BandwidthCap != 0 {
		capped, err := cappedTopology(p.topo, o.BandwidthCap)
		if err != nil {
			return nil, err
		}
		topo = capped
	}
	eng, err := p.solverEngine(topo, &o)
	if err != nil {
		return nil, err
	}
	req := &Request{Problem: p, Topology: topo, Options: o, eng: eng}
	if o.Progress != nil {
		eng.OnSweep = func(ev core.SweepEvent) {
			req.Emit(Event{Phase: ev.Phase, Step: ev.Sweep, Total: ev.Sweeps, Best: ev.Best})
		}
	}
	return fn(ctx, req)
}

// cappedTopology returns the topology of t's kind and size with every
// link's bandwidth set to bw, leaving t untouched.
func cappedTopology(t *Topology, bw float64) (*Topology, error) {
	return buildTopology(t.Kind, t.W, t.H, bw)
}

// The built-in algorithms. Each is a thin adapter from the engine's
// native entry point to the Result shape.
func init() {
	Register("nmap-single", solveNMAPSingle)
	Register("nmap-split", solveNMAPSplit)
	Register("pmap", solvePMAP)
	Register("gmap", solveGMAP)
	Register("pbb", solvePBB)
}

// solveNMAPSingle runs the paper's mappingwithsinglepath(): greedy
// initialization plus pairwise-swap refinement under congestion-aware
// single minimum-path routing.
func solveNMAPSingle(ctx context.Context, req *Request) (*Result, error) {
	sr, err := req.eng.MapSinglePathCtx(ctx)
	res := req.singlePathResult(sr.Mapping, sr.Swaps)
	if err != nil {
		res.Partial = true
	}
	return res, err
}

// solveNMAPSplit runs mappingwithsplitting() under the configured
// SplitPolicy: the refinement first minimizes bandwidth violation, then
// the total split flow.
func solveNMAPSplit(ctx context.Context, req *Request) (*Result, error) {
	sr, err := req.eng.MapWithSplittingCtx(ctx, req.Options.Split.mode())
	if sr == nil {
		return nil, err
	}
	res := req.splitResult(sr, req.Options.Split)
	if err != nil {
		res.Partial = true
	}
	return res, err
}

// solvePMAP runs the two-phase cluster mapping baseline of Koziris et
// al.; placement only, scored under single minimum-path routing.
// Cancellation is honored at entry and again before the result is
// packaged (the placement itself is a single uninterruptible pass).
func solvePMAP(ctx context.Context, req *Request) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := baseline.PMAP(req.eng)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return req.Finish(m)
}

// solveGMAP runs the greedy upper-bound-cost mapping baseline of
// Hu–Marculescu; placement only, scored under single minimum-path
// routing. Cancellation is honored like solvePMAP's.
func solveGMAP(ctx context.Context, req *Request) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := baseline.GMAP(req.eng)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return req.Finish(m)
}

// solvePBB runs the partial branch-and-bound baseline, honoring
// WithPBBBudget, WithFastQueue and WithWorkers; cancellation returns the
// best (possibly greedily completed) mapping found so far.
func solvePBB(ctx context.Context, req *Request) (*Result, error) {
	cfg := baseline.DefaultPBBConfig()
	if req.Options.MaxQueue > 0 {
		cfg.MaxQueue = req.Options.MaxQueue
	}
	if req.Options.MaxExpand > 0 {
		cfg.MaxExpand = req.Options.MaxExpand
	}
	cfg.FastQueue = req.Options.FastQueue
	cfg.Workers = req.Options.Workers
	if req.Options.Progress != nil {
		cfg.OnExpand = func(expanded, queue int, incumbent float64) {
			req.Emit(Event{Phase: "expand", Step: expanded, Total: cfg.MaxExpand, Best: incumbent})
		}
	}
	m, err := baseline.PBBCtx(ctx, req.eng, cfg)
	res := req.singlePathResult(m, 0)
	if err != nil {
		res.Partial = true
	}
	return res, err
}
