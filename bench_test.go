// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (via internal/expt) and measure the cost of the
// core algorithmic kernels. Run them with:
//
//	go test -bench=. -benchmem
//
// Experiment benches print their reproduced table/figure once (on the
// first iteration) so a bench run doubles as a full reproduction log.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/noc"
	"repro/internal/route"
	"repro/internal/topology"
	"repro/internal/xpipes"
	"repro/nocmap"
	"repro/nocmap/server"
	"repro/nocmap/store"
)

// BenchmarkFig3 regenerates Figure 3: the communication cost of PMAP,
// GMAP, PBB and NMAP on the six video applications.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + expt.FormatFig3(rows))
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: minimum link bandwidth under each
// algorithm/routing combination.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + expt.FormatFig4(rows))
		}
	}
}

// BenchmarkTable1 regenerates Table 1: cost and bandwidth ratios of the
// baselines over NMAP with split routing.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig3, err := expt.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		fig4, err := expt.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		rows := expt.Table1(fig3, fig4)
		if i == 0 {
			b.Log("\n" + expt.FormatTable1(rows))
		}
	}
}

// BenchmarkTable2 regenerates Table 2: PBB vs NMAP on random graphs of 25
// to 65 cores.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table2(expt.DefaultTable2Config())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + expt.FormatTable2(rows))
		}
	}
}

// BenchmarkFig5c regenerates Figure 5(c): DSP packet latency vs link
// bandwidth for single-path and split-traffic routing.
func BenchmarkFig5c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := expt.Fig5c(expt.DefaultFig5cConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + expt.FormatFig5c(points))
		}
	}
}

// BenchmarkTable3 regenerates Table 3: the DSP NoC design summary.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := expt.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + expt.FormatTable3(d))
		}
	}
}

// --- algorithm kernels -------------------------------------------------

func vopdProblem(b *testing.B) *core.Problem {
	b.Helper()
	a := apps.VOPD()
	topo, err := topology.NewMesh(a.W, a.H, 1e9)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(a.Graph, topo)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkMapSinglePathVOPD measures the full NMAP run (initialization
// plus the pairwise swap pass) on the 16-core VOPD. (Formerly
// BenchmarkNMAPSinglePathVOPD; same kernel.)
func BenchmarkMapSinglePathVOPD(b *testing.B) {
	p := vopdProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := p.MapSinglePath(); !res.Mapping.Complete() {
			b.Fatal("incomplete mapping")
		}
	}
}

func table2Problem(b *testing.B, workers int) *core.Problem {
	b.Helper()
	a, err := apps.Random(65, 1)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := topology.NewMesh(a.W, a.H, 1e9)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(a.Graph, topo)
	if err != nil {
		b.Fatal(err)
	}
	p.Workers = workers
	return p
}

// BenchmarkMapSinglePath65 measures NMAP at Table 2's largest size with
// the sequential sweep. (Formerly BenchmarkNMAPSinglePath65.)
func BenchmarkMapSinglePath65(b *testing.B) {
	p := table2Problem(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MapSinglePath()
	}
}

// BenchmarkMapSinglePath65Parallel is the same run with one sweep worker
// per CPU; the resulting mapping is bit-identical to the sequential one.
func BenchmarkMapSinglePath65Parallel(b *testing.B) {
	p := table2Problem(b, -1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MapSinglePath()
	}
}

// BenchmarkMapSinglePathSwapDelta measures the raw incremental
// evaluation kernel: one O(degree) delta per candidate swap, zero
// allocations.
func BenchmarkMapSinglePathSwapDelta(b *testing.B) {
	p := table2Problem(b, 1)
	m := p.Initialize()
	m.CommCost() // warm the edge cache
	n := p.Topo().N()
	b.ResetTimer()
	b.ReportAllocs()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += m.SwapDelta(i%n, (i*7+3)%n)
	}
	_ = sink
}

// BenchmarkShortestPathRouting measures one congestion-aware routing pass
// over all VOPD commodities with a freshly allocated result per call.
func BenchmarkShortestPathRouting(b *testing.B) {
	p := vopdProblem(b)
	m := p.Initialize()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := p.RouteSinglePath(m); !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkRouteSinglePath measures the steady-state routing kernel the
// refinement sweeps actually run: RouteSinglePathInto reusing one result
// (loads, paths and arena) across calls — zero allocations per op, gated
// by CI.
func BenchmarkRouteSinglePath(b *testing.B) {
	p := vopdProblem(b)
	m := p.Initialize()
	res := p.RouteSinglePath(m) // warm the result storage and scratch pool
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p.RouteSinglePathInto(m, res); !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkMCF2VOPD measures one MCF2 solve (split-traffic cost) for the
// mapped VOPD, the kernel of mappingwithsplitting().
func BenchmarkMCF2VOPD(b *testing.B) {
	p := vopdProblem(b)
	m := p.Initialize()
	cs := p.Commodities(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := mcf.SolveMCF2(p.Topo(), cs, mcf.Options{Mode: mcf.Aggregate})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkLPSimplex measures the raw simplex solver on a dense
// transportation-style program.
func BenchmarkLPSimplex(b *testing.B) {
	const suppliers, consumers = 12, 12
	build := func() *lp.Problem {
		p := lp.NewProblem()
		vars := make([][]int, suppliers)
		for i := range vars {
			vars[i] = make([]int, consumers)
			for j := range vars[i] {
				vars[i][j] = p.AddVariable(float64((i*7+j*3)%11 + 1))
			}
		}
		for i := 0; i < suppliers; i++ {
			terms := make([]lp.Term, consumers)
			for j := 0; j < consumers; j++ {
				terms[j] = lp.Term{Var: vars[i][j], Coef: 1}
			}
			if err := p.AddConstraint(terms, lp.LE, 100); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < consumers; j++ {
			terms := make([]lp.Term, suppliers)
			for i := 0; i < suppliers; i++ {
				terms[i] = lp.Term{Var: vars[i][j], Coef: 1}
			}
			if err := p.AddConstraint(terms, lp.EQ, 80); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := build().Solve()
		if err != nil {
			b.Fatal(err)
		}
		if s.Status != lp.Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}

// BenchmarkPBBVOPD measures the branch-and-bound baseline at a bounded
// budget on VOPD — the rebuilt search engine with pooled nodes and the
// bit-exact legacy queue.
func BenchmarkPBBVOPD(b *testing.B) {
	p := vopdProblem(b)
	cfg := baseline.PBBConfig{MaxQueue: 500, MaxExpand: 5000}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := baseline.PBB(p, cfg); !m.Complete() {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkPBBVOPDFastQueue is the same search with the opt-in indexed
// bounded queue (no truncation re-sorts).
func BenchmarkPBBVOPDFastQueue(b *testing.B) {
	p := vopdProblem(b)
	cfg := baseline.PBBConfig{MaxQueue: 500, MaxExpand: 5000, FastQueue: true}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := baseline.PBB(p, cfg); !m.Complete() {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkMCF2VOPDSolverReuse measures the persistent-solver MCF2 path
// the split-mapping candidate loop runs (structure rebuilt into retained
// buffers, cold pivots, no flow extraction).
func BenchmarkMCF2VOPDSolverReuse(b *testing.B) {
	p := vopdProblem(b)
	m := p.Initialize()
	cs := p.Commodities(m)
	s := mcf.NewSolver(p.Topo(), mcf.Options{Mode: mcf.Aggregate})
	s.SkipFlows = true
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := s.SolveMCF2(cs)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkWormholeSimDSP measures simulation throughput (cycles/sec) of
// the DSP design at Figure 5(c)'s low-bandwidth point.
func BenchmarkWormholeSimDSP(b *testing.B) {
	a := apps.DSP()
	topo := a.Mesh(1e9)
	p, err := core.NewProblem(a.Graph, topo)
	if err != nil {
		b.Fatal(err)
	}
	res := p.MapSinglePath()
	tab := route.FromSinglePaths(res.Route.Paths)
	design, err := xpipes.Compile(p, res.Mapping, tab, xpipes.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := design.SimConfig(1100, 7)
		cfg.MeasureCycles = 10000
		st, err := noc.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if st.Delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkQuadrantDijkstra measures one quadrant-restricted shortest
// path query on an 8x8 mesh.
func BenchmarkQuadrantDijkstra(b *testing.B) {
	topo, err := topology.NewMesh(8, 8, 1000)
	if err != nil {
		b.Fatal(err)
	}
	src, dst := topo.Node(0, 0), topo.Node(7, 7)
	in := topo.Quadrant(src, dst)
	w := func(e graph.Edge) float64 { return 1 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := graph.Dijkstra(topo.Graph(), src, dst, in, w); !ok {
			b.Fatal("no path")
		}
	}
}

// BenchmarkInitializeVOPD measures the greedy initialization phase alone.
func BenchmarkInitializeVOPD(b *testing.B) {
	p := vopdProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := p.Initialize(); !m.Complete() {
			b.Fatal("incomplete")
		}
	}
}

// submitBody builds a POST /v1/solve body the way the service benchmark
// does: cores c0..c{cores-1}, flows distinct random (src, dst) pairs of
// 5..50 MB/s, on a w x h mesh of 1000 MB/s links, solved by algorithm.
func submitBody(b *testing.B, w, h, cores, flows int, algorithm string) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(cores)))
	app := nocmap.NewCoreGraph(fmt.Sprintf("bench-%d", cores))
	for c := 0; c < cores; c++ {
		app.AddCore(fmt.Sprintf("c%d", c))
	}
	for app.NumEdges() < flows {
		a, d := rng.Intn(cores), rng.Intn(cores-1)
		if d >= a {
			d++
		}
		if app.HasEdge(a, d) {
			continue
		}
		app.Connect(fmt.Sprintf("c%d", a), fmt.Sprintf("c%d", d), float64(5+rng.Intn(46)))
	}
	mesh, err := nocmap.NewMesh(w, h, 1000)
	if err != nil {
		b.Fatal(err)
	}
	p, err := nocmap.NewProblem(app, mesh)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(server.SubmitRequest{Problem: raw, Options: server.SolveSpec{Algorithm: algorithm}})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkParseSubmit measures the service's front door on the
// benchmark's small (8 cores on 4x4) and large (64 cores on 8x8) bodies:
// decode, validation and the canonical form the job key hashes.
func BenchmarkParseSubmit(b *testing.B) {
	for _, c := range []struct {
		name               string
		w, h, cores, flows int
	}{
		{"8core", 4, 4, 8, 6},
		{"64core", 8, 8, 64, 240},
	} {
		body := submitBody(b, c.w, c.h, c.cores, c.flows, "nmap-single")
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, serr := server.ParseSubmit(body); serr != nil {
					b.Fatal(serr)
				}
			}
		})
	}
}

// discardWriter is a reusable http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// hotRepeatBody is the service benchmark's repeated shape: 16 cores and
// 30 flows on a 4x4 mesh, split-traffic NMAP.
func hotRepeatBody(b *testing.B) []byte { return submitBody(b, 4, 4, 16, 30, "nmap-split") }

// BenchmarkWriteJobStatus measures answering GET /v1/jobs/{id} for a
// cache hit carrying the hot-repeat shape's result: the job lookup and
// the JobStatus encode, with the result bytes copied as they are.
func BenchmarkWriteJobStatus(b *testing.B) {
	svc, err := server.New(server.Config{Pool: 1, QueueSize: 8, CacheSize: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	body := hotRepeatBody(b)
	var st server.JobStatus
	for i := 0; i < 2; i++ { // solve, then hit the cache
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
	}
	if !st.CacheHit || len(st.Result) == 0 {
		b.Fatalf("second submission was not a cache hit with a result: %+v", st)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	for b.Loop() {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkSubmitCacheHit measures a resubmitted hot-repeat body:
// POST /v1/solve through Handler() after one priming solve. The first
// hit fills the submit memo, so the loop measures the memo path: a
// sha256 of the body, the cache lookup and the status answer, with no
// decode.
func BenchmarkSubmitCacheHit(b *testing.B) {
	svc, err := server.New(server.Config{Pool: 1, QueueSize: 8, CacheSize: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	body := hotRepeatBody(b)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("priming solve: status %d (body %s)", rec.Code, rec.Body)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", rd)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	for b.Loop() {
		rd.Reset(body)
		h.ServeHTTP(w, req)
	}
	if st := svc.Stats(); st.Solved != 1 || st.CacheHits == 0 {
		b.Fatalf("want one solve and the rest cache hits, got %d solved / %d hits", st.Solved, st.CacheHits)
	}
}

// BenchmarkApplyOpsCacheHit measures the store write one cache hit
// costs: its terminal record appended to a FileStore WAL and fsynced as
// one batch. A priming write puts the result in the store's result
// table first, as the solve a hit follows does, so the record names the
// result by key instead of carrying it; wal-B/op reports the bytes each
// write adds. The compaction triggers are out of reach, so only the
// append path runs.
func BenchmarkApplyOpsCacheHit(b *testing.B) {
	var req server.SubmitRequest
	if err := json.Unmarshal(hotRepeatBody(b), &req); err != nil {
		b.Fatal(err)
	}
	var p nocmap.Problem
	if err := json.Unmarshal(req.Problem, &p); err != nil {
		b.Fatal(err)
	}
	res, err := nocmap.Solve(context.Background(), &p, nocmap.WithAlgorithm("nmap-split"))
	if err != nil {
		b.Fatal(err)
	}
	result, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := store.OpenConfig(b.TempDir(), store.FileConfig{CompactOps: 1 << 30, CompactBytes: 1 << 60})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	rec := store.JobRecord{ID: "job-00000001", Key: "0123456789abcdef0123456789abcdef",
		State: store.StateDone, CacheHit: true, Result: result, Seq: 1, Minted: 1}
	ops := []store.Op{{Kind: store.OpPutJob, Rec: &rec}}
	if err := fs.ApplyOps(ops); err != nil {
		b.Fatal(err)
	}
	before := fs.CompactionStats().PendingBytes
	b.ReportAllocs()
	for b.Loop() {
		if err := fs.ApplyOps(ops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fs.CompactionStats().PendingBytes-before)/float64(b.N), "wal-B/op")
}
