package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"
)

// inf is a failed request's latency in ms: beyond any limit, but finite
// so it still encodes as JSON.
const inf = 1e6

// storeSample bounds how many traced jobs the store replay writes: each
// costs one or two real fsyncs.
const storeSample = 400

// analysis checks a run's answers once the servers are gone and, in a
// traced run, replays the traced requests' layer calls.
type analysis struct {
	cfg     config
	checker *checker
	tally   *tally

	tracer   tracer
	replays  []*replayed // traced requests, in order
	tracedA  []float64   // open-loop latencies after the warm-up, before the traced half
	tracedB  []float64   // open-loop latencies of the traced half
	runStart time.Time
	store    *storeReplay
	storeN   int
	storeDir string
}

// phase tallies every shot of one load phase and checks a sample of them
// (every one, traced); bodies[k] is the body of request first+k. Shots
// due at or after traceFrom (lane 0 of a traced run) are traced;
// phaseStart places them on the run's clock.
func (a *analysis) phase(shots []shot, bodies [][]byte, first int, phaseStart, traceFrom time.Duration, lane int) error {
	check := make([]bool, len(shots))
	if a.cfg.trace {
		for i := range check {
			check[i] = true
		}
	} else {
		for _, i := range sample(a.cfg.seed, lane, len(shots), a.cfg.workload.CheckSample) {
			check[i] = true
		}
	}
	for i := range shots {
		s := &shots[i]
		a.tally.attempted++
		r, why := outcome(s)
		if why != "" {
			a.tally.fail(fmt.Sprintf("request %d: %s", s.Index, why), s.Status/100 == 2)
			continue
		}
		if !check[i] {
			continue
		}
		rp, err := a.checker.check(bodies[s.Index-first], r, a.cfg.trace)
		if rp == nil {
			return fmt.Errorf("request %d: %w", s.Index, err)
		}
		if err != nil {
			a.tally.fail(fmt.Sprintf("request %d: %v", s.Index, err), true)
			continue
		}
		if !a.cfg.trace || lane != 0 {
			continue
		}
		if s.Due < traceFrom {
			if s.Due >= warmup {
				a.tracedA = append(a.tracedA, ms(s.latency()))
			}
			continue
		}
		a.tracedB = append(a.tracedB, ms(s.latency()))
		a.tracer.request(phaseStart, s, rp)
		a.replays = append(a.replays, rp)
		if err := a.replayStore(s.Index, rp, r.Result); err != nil {
			return err
		}
	}
	return nil
}

// replayStore writes a traced job's store batches to the scratch store.
func (a *analysis) replayStore(req int, rp *replayed, result []byte) error {
	if a.storeN >= storeSample {
		return nil
	}
	if a.store == nil {
		a.storeDir = filepath.Join(a.cfg.work, fmt.Sprintf("replay-%d", os.Getpid()))
		if err := os.RemoveAll(a.storeDir); err != nil {
			return err
		}
		sr, err := newStoreReplay(a.storeDir)
		if err != nil {
			return err
		}
		a.store = sr
	}
	a.storeN++
	start := time.Since(a.runStart)
	durs, err := a.store.job(rp, result)
	if err != nil {
		return err
	}
	for _, d := range durs {
		a.tracer.add(req, "store.apply", start, start+d)
		start += d
	}
	return nil
}

// layers derives the per-layer metrics: self times from the span file
// written at the end of the run, counters from the /v1/stats samples.
func (a *analysis) layers(out *result, smp *sampled, final []serverStats, r0, r1 routerStats,
	direct []shot, open []float64, gen genStats, stores storeCheck) error {
	if a.store != nil {
		err := a.store.close()
		os.RemoveAll(a.storeDir)
		if err != nil {
			return err
		}
	}
	traceDir := filepath.Join(a.cfg.work, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", a.cfg.workload.Name, a.cfg.seed))
	if err := a.tracer.write(path); err != nil {
		return err
	}
	spans, err := readSpans(path)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	fmt.Fprintf(os.Stderr, "nocbench: wrote %d spans of %d traced requests to %s\n", len(spans), len(a.replays), path)

	put := func(name string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	p99, _ := windowedP99(open)
	put("p99_ms", p99)
	put("server.decode.us_p50", median(self["server.decode"]))
	put("server.key.us_p50", median(self["server.key"]))
	put("nocmap.encode.us_p50", median(self["nocmap.encode"]))
	put("server.unattributed.us_p50", median(self["http"]))
	put("server.unattributed.us_p99", percentile(self["http"], 0.99))
	put("store.apply.us_p50", median(self["store.apply"]))
	put("store.apply.us_p99", percentile(self["store.apply"], 0.99))
	for _, alg := range []string{"nmap-single", "nmap-split"} {
		put("nocmap.solve."+alg+".us_p50", median(self["nocmap.solve."+alg]))
		put("nocmap.solve."+alg+".us_p99", percentile(self["nocmap.solve."+alg], 0.99))
		events, solves := 0, 0
		for _, rp := range a.replays {
			if !rp.hit && rp.alg == alg {
				events += rp.events
				solves++
			}
		}
		put("nocmap.solve."+alg+".events", float64(events)/float64(max(solves, 1)))
	}
	var bodies, results []float64
	for _, rp := range a.replays {
		bodies = append(bodies, float64(rp.bodyLen))
		results = append(results, float64(rp.resLen))
	}
	put("server.decode.bytes", median(bodies))
	put("nocmap.encode.bytes", median(results))

	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	jobs := smp.end.Submitted - smp.start.Submitted
	put("server.cache.hit_ratio", ratio(smp.end.CacheHits-smp.start.CacheHits, jobs))
	put("server.coalesced_ratio", ratio(smp.end.Coalesced-smp.start.Coalesced, jobs))
	put("server.problems_reused_ratio", ratio(smp.end.ProblemsReused-smp.start.ProblemsReused, jobs))
	put("server.queue.len_max", float64(smp.queueMax))
	put("server.store_pending.max", float64(smp.pendingMax))
	acks := smp.end.DurableAcks - smp.start.DurableAcks
	put("server.replication.acked_ratio", ratio(acks, acks+smp.end.DurableAcksDegraded-smp.start.DurableAcksDegraded))
	put("server.replication.records_per_job", ratio(smp.end.Replicated-smp.start.Replicated, jobs))
	put("server.replication.lag_max", float64(smp.lagMax))

	total := sumStats(final)
	put("store.bytes_per_job", ratio(uint64(stores.bytes), uint64(stores.jobs)))
	put("store.compactions_per_1k_jobs", 1000*ratio(total.Compactions, total.Submitted))
	put("store.errors", float64(total.StoreErrors))
	put("store.load_ms", stores.loadMs)

	hop := 0.0
	if len(direct) > 0 {
		hop = 1000 * (median(a.tracedA) - median(latencies(afterWarmup(direct, warmup))))
	}
	put("shard.hop.us_p50", hop)
	put("shard.retries", float64(r1.Router.Retries-r0.Router.Retries))
	put("shard.failovers", float64(r1.Router.Failovers-r0.Router.Failovers))

	put("gen.lag_p99_ms", ms(gen.LagP99))
	put("gen.backlog_max", float64(gen.BacklogMax))
	put("trace.overhead_ms", median(a.tracedB)-median(a.tracedA))
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// storeCheck is what reopening the backends' stores found.
type storeCheck struct {
	jobs   int     // job records over every store
	bytes  int64   // bytes on disk over every store
	loadMs float64 // slowest OpenConfig + Load
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
