package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/nocmap"
	"repro/nocmap/server"
)

// shape is one family of generated problems: an application of Cores
// cores and Flows distinct random flows on a W x H mesh, solved with
// Algorithm.
type shape struct {
	W, H      int
	Cores     int
	Flows     int
	Algorithm string
}

// workload is one traffic mix. Every request body is a pure function of
// (seed, request index), so two runs with the same seed send identical
// bytes.
type workload struct {
	Name string
	// Fleet runs nocmapsh in front of two replicating backends instead
	// of one nocmapd.
	Fleet bool
	// Rate is the fixed open-loop offered load (requests per second).
	Rate float64
	// Shapes are the problem families; request i draws from
	// Shapes[i%len(Shapes)].
	Shapes []shape
	// WorkingSet, when positive, makes the stream repeat: request i
	// resubmits one of WorkingSet fixed problems, primed during set-up.
	// Zero means every request carries a problem never sent before.
	WorkingSet int
	// ReplicatedEvery, when positive, makes every ReplicatedEvery-th
	// submission ask for durability=replicated; the others are async.
	ReplicatedEvery int
	// PeakCap bounds the closed-loop phase's pre-generated bodies per
	// second of phase; a server faster than that ends the phase early.
	PeakCap float64
	// CheckSample is how many requests per phase an untraced run checks
	// against an in-process solve (a traced run checks every request).
	CheckSample int
}

// openShare is the part of an untraced run's seconds given to the open
// loop; the closed loop gets the rest. A traced fleet run gives the rest
// to its direct pass.
const openShare = 0.5

// cacheSize and retention are nocmapd's defaults for -cache and
// -retention, which the benchmark never overrides.
const (
	cacheSize = 128
	retention = 1024
)

var workloads = []workload{
	// tiny distinct solves: front end, queue handoff and store write path
	// dominate; the result cache never hits
	{
		Name:        "small-distinct",
		Rate:        1000,
		Shapes:      []shape{{W: 4, H: 4, Cores: 8, Flows: 6, Algorithm: "nmap-single"}},
		PeakCap:     6000,
		CheckSample: 256,
	},
	// large distinct solves: the NMAP kernels (single-path sweeps,
	// split-traffic MCF/LP) are most of each request. The two shapes'
	// solve times overlap (about 13 and 20 ms in process), so the
	// latency distribution has one mode and p50_ms falls inside it; with
	// 192-flow single-path apps (about 6 ms) the median sat in the gap
	// between a fast and a slow population and spread 0.14 over five
	// seeds.
	{
		Name: "solve-heavy",
		Rate: 35,
		Shapes: []shape{
			{W: 8, H: 8, Cores: 64, Flows: 240, Algorithm: "nmap-single"},
			{W: 4, H: 4, Cores: 12, Flows: 18, Algorithm: "nmap-split"},
		},
		PeakCap:     400,
		CheckSample: 32,
	},
	// 64 primed split problems resubmitted: every request is a cache hit,
	// so decode, hashing and encoding dominate
	{
		Name:        "hot-repeat",
		Rate:        600,
		Shapes:      []shape{{W: 4, H: 4, Cores: 16, Flows: 30, Algorithm: "nmap-split"}},
		WorkingSet:  64,
		PeakCap:     5000,
		CheckSample: 256,
	},
	// small distinct solves through nocmapsh to two replicating backends:
	// routing, record shipping to the follower, and durability=replicated
	// acks. Only one submission in eight asks for the replicated ack.
	// When all did, latency had two modes 1.3 ms apart (whether a job's
	// queued and terminal records reached the follower in one batch or
	// two), the share in the lower one changed from run to run between 0
	// and about half, and p50_ms flipped between 2.8 and 3.9 ms. The
	// other seven are async and still replicated, so the median lies in
	// their single mode.
	{
		Name:            "fleet-replicated",
		Fleet:           true,
		Rate:            300,
		Shapes:          []shape{{W: 4, H: 4, Cores: 8, Flows: 6, Algorithm: "nmap-single"}},
		ReplicatedEvery: 8,
		PeakCap:         2500,
		CheckSample:     256,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// problemOf maps a request index to the problem it carries. Distinct
// workloads use the index itself; a repeating workload draws uniformly
// from its working set.
func (w *workload) problemOf(seed int64, i int) int {
	if w.WorkingSet == 0 {
		return i
	}
	return rand.New(rand.NewSource(mix(seed, i, 1))).Intn(w.WorkingSet)
}

// body builds the POST /v1/solve body of problem number id.
func (w *workload) body(seed int64, id int) ([]byte, error) {
	sh := w.Shapes[id%len(w.Shapes)]
	rng := rand.New(rand.NewSource(mix(seed, id, 0)))
	app := nocmap.NewCoreGraph(fmt.Sprintf("%s-%d-%d", w.Name, seed, id))
	for c := 0; c < sh.Cores; c++ {
		app.AddCore(fmt.Sprintf("c%d", c))
	}
	type pair struct{ a, b int }
	seen := make(map[pair]bool, sh.Flows)
	for len(seen) < sh.Flows {
		a := rng.Intn(sh.Cores)
		b := rng.Intn(sh.Cores - 1)
		if b >= a {
			b++ // distinct endpoints: Connect panics on self-loops
		}
		bw := float64(5 + rng.Intn(46)) // 5..50 MB/s against 1000 MB/s links
		if seen[pair{a, b}] {
			continue
		}
		seen[pair{a, b}] = true
		app.Connect(fmt.Sprintf("c%d", a), fmt.Sprintf("c%d", b), bw)
	}
	mesh, err := nocmap.NewMesh(sh.W, sh.H, 1000)
	if err != nil {
		return nil, err
	}
	p, err := nocmap.NewProblem(app, mesh)
	if err != nil {
		return nil, fmt.Errorf("problem %d: %w", id, err)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	spec := server.SolveSpec{Algorithm: sh.Algorithm}
	if w.ReplicatedEvery > 0 && id%w.ReplicatedEvery == 0 {
		spec.Durability = server.DurabilityReplicated
	}
	return json.Marshal(server.SubmitRequest{Problem: raw, Options: spec})
}

// stream is a workload's request sequence under one seed. A repeating
// workload's working set is built once and shared by every request that
// draws it.
type stream struct {
	w    *workload
	seed int64
	set  [][]byte // the working set, when the workload repeats
}

func newStream(w *workload, seed int64) (*stream, error) {
	s := &stream{w: w, seed: seed}
	for id := 0; id < w.WorkingSet; id++ {
		b, err := w.body(seed, id)
		if err != nil {
			return nil, err
		}
		s.set = append(s.set, b)
	}
	return s, nil
}

// request returns the body of request i.
func (s *stream) request(i int) ([]byte, error) {
	if s.set != nil {
		return s.set[s.w.problemOf(s.seed, i)], nil
	}
	return s.w.body(s.seed, i)
}

// requests returns the bodies of requests [from, to).
func (s *stream) requests(from, to int) ([][]byte, error) {
	out := make([][]byte, 0, to-from)
	for i := from; i < to; i++ {
		b, err := s.request(i)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// mix folds (seed, index, lane) into one RNG seed (splitmix64 finalizer),
// so neighbouring indices get unrelated random sequences.
func mix(seed int64, i, lane int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + uint64(lane)*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
