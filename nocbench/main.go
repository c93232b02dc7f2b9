// Command nocbench is the repository's service benchmark. It starts the
// real nocmapd (and, for the fleet workload, nocmapsh) binaries, drives
// them with a seeded open-loop phase at a fixed rate and a closed-loop
// phase at full speed, checks answers against in-process solves, and
// prints one JSON line of end-to-end metrics — or, with -trace 1, of
// per-layer metrics derived from a span file. See README.md.
//
//	nocbench -workload small-distinct -seed 1 -seconds 24 -trace 0 -bin DIR -work DIR
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/nocmap/store"
)

// An untraced run deploys from scratch several times to time set-up:
// maxSetups times, or minSetups once set-ups have taken setupBudget. It
// reports the median and measures on the last deployment.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

type config struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the nocmapd and nocmapsh binaries
	work     string // scratch directory for stores, logs and span files
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "request-stream seed")
	seconds := flag.Float64("seconds", 24, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	bin := flag.String("bin", "", "directory holding the nocmapd and nocmapsh binaries")
	work := flag.String("work", "", "scratch directory for stores, logs and span files")
	flag.Parse()
	if *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(2)
	}
	// The generator is one process on at most conns threads.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), conns))
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts outcomes over every phase of a run.
type tally struct {
	attempted, failed, wrong int
	firstErr                 string
}

func (t *tally) fail(why string, wrong bool) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if t.firstErr == "" {
		t.firstErr = why
	}
}

func run(cfg config) (*result, error) {
	w := cfg.workload
	runStart := time.Now()
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.Name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	openDur := time.Duration(openShare * cfg.seconds * float64(time.Second))
	restDur := time.Duration((1 - openShare) * cfg.seconds * float64(time.Second))
	if cfg.trace && !w.Fleet {
		// Nothing follows a traced run's open loop except the fleet's
		// direct pass: give the rest of the time to more samples.
		openDur, restDur = openDur+restDur, 0
	}
	nOpen := int(w.Rate * openDur.Seconds())
	st, err := newStream(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	openBodies, err := st.requests(0, nOpen)
	if err != nil {
		return nil, err
	}
	var restBodies [][]byte
	if !cfg.trace {
		if restBodies, err = st.requests(nOpen, nOpen+int(w.PeakCap*restDur.Seconds())); err != nil {
			return nil, err
		}
	}

	probes := probe()
	ctx := context.Background()
	load := newClient()
	ctl := &http.Client{Timeout: 10 * time.Second}
	reps := maxSetups
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var setupTotal time.Duration
	var d *deployment
	for r := 0; r < reps && !(r >= minSetups && setupTotal > setupBudget); r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = deploy(ctx, w, cfg.bin, filepath.Join(dir, fmt.Sprintf("setup%d", r)), ctl); err != nil {
			return nil, err
		}
		if err := prime(load, d.url(), st); err != nil {
			d.kill()
			return nil, err
		}
		setupTotal += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
		load.CloseIdleConnections()
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	var routerStart routerStats
	if w.Fleet {
		if err := getJSON(ctl, d.router.url+"/v1/stats", &routerStart); err != nil {
			return nil, err
		}
	}
	var smp *sampler
	if cfg.trace {
		smp = startSampler(ctl, d, openDur/2)
	}
	resumeGC := pauseGC()
	openStart := time.Since(runStart)
	var rounds []round
	var openShots, restShots, direct []shot
	var directBodies [][]byte
	var traced *sampled
	if !cfg.trace {
		if rounds, err = runRounds(load, d, w, openBodies, restBodies, int(cfg.seconds/roundSeconds), restDur); err != nil {
			return nil, err
		}
		for _, r := range rounds {
			openShots = append(openShots, r.open...)
			restShots = append(restShots, r.closed...)
			probes = append(probes, r.probes...)
		}
	} else {
		openShots = openLoop(load, []string{d.url()}, 0, openBodies, w.Rate, 2*time.Second)
		if traced, err = smp.stop(); err != nil {
			return nil, err
		}
		load.CloseIdleConnections()
		if w.Fleet {
			// The router hop's cost: the same offered load sent straight to
			// the backends, from another seed so no problem repeats.
			ds, err := newStream(w, cfg.seed^0x5eed)
			if err != nil {
				return nil, err
			}
			if directBodies, err = ds.requests(0, int(w.Rate*restDur.Seconds())); err != nil {
				return nil, err
			}
			urls := make([]string, len(d.backends))
			for i, b := range d.backends {
				urls[i] = b.url
			}
			direct = openLoop(load, urls, 0, directBodies, w.Rate, 2*time.Second)
		}
	}
	load.CloseIdleConnections()
	resumeGC()

	usage, err := d.usage()
	if err != nil {
		return nil, err
	}
	endStats, err := d.backendStats(ctl)
	if err != nil {
		return nil, err
	}
	var routerEnd routerStats
	if w.Fleet {
		if err := getJSON(ctl, d.router.url+"/v1/stats", &routerEnd); err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	probes = append(probes, probe()...)
	// Everything below runs with the servers gone, so checking never
	// competes with them for the cores.
	var t tally
	an := &analysis{cfg: cfg, checker: newChecker(), tally: &t, runStart: runStart}
	if err := an.phase(openShots, openBodies, 0, openStart, openDur/2, 0); err != nil {
		return nil, err
	}
	if err := an.phase(restShots, restBodies, nOpen, 0, -1, 1); err != nil {
		return nil, err
	}
	if err := an.phase(direct, directBodies, 0, 0, -1, 2); err != nil {
		return nil, err
	}
	stores, err := checkStores(d, endStats, &t)
	if err != nil {
		return nil, err
	}

	out := &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if t.firstErr != "" {
		fmt.Fprintf(os.Stderr, "nocbench: %d of %d requests failed (%d wrong); first: %s\n",
			t.failed, t.attempted, t.wrong, t.firstErr)
	}
	put := func(name string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	if cfg.trace {
		measured := afterWarmup(openShots, warmup)
		gen := scheduleStats(measured)
		reportSchedule(w, cfg, len(measured), gen)
		if err := an.layers(out, traced, endStats, routerStart, routerEnd, direct, latencies(measured), gen, stores); err != nil {
			return nil, err
		}
		printMetrics(w.Name, cfg, out)
		return out, nil
	}

	var p50s, rates, open []float64
	var gen genStats
	var cpuTicks int64
	completed, measured := 0, 0
	for i, r := range rounds {
		skip := settle
		if i == 0 {
			skip = warmup
		}
		m := afterWarmup(r.open, skip)
		g := scheduleStats(m)
		gen.LagP99 = max(gen.LagP99, g.LagP99)
		gen.BacklogMax = max(gen.BacklogMax, g.BacklogMax)
		gen.Growing = gen.Growing || g.Growing
		lat := latencies(m)
		open = append(open, lat...)
		measured += len(m)
		p50s = append(p50s, median(lat))
		var done []float64 // completion times (s) of the closed segment's good answers
		for k := range r.closed {
			if _, why := outcome(&r.closed[k]); why == "" {
				done = append(done, r.closed[k].Done.Seconds())
			}
		}
		sort.Float64s(done)
		rates = append(rates, windowRates(done, r.elapsed.Seconds())...)
		cpuTicks += r.cpuTicks
		for k := range r.open {
			if r.open[k].Status/100 == 2 {
				completed++
			}
		}
	}
	reportSchedule(w, cfg, measured, gen)
	// The p99 is too noisy on a shared host to bound, so it is a
	// traced-run metric; it is still shown here.
	p99, windows := windowedP99(open)
	fmt.Fprintf(os.Stderr, "nocbench: p99 %.3f ms (median p99 of %d windows of %d samples; bounded only in traced runs' per-layer output)\n",
		p99, windows, len(open)/windows)
	// The CPU-bound figures are scaled to the reference host (see
	// probe.go); the raw ones go to standard error.
	slow := slowdown(probes)
	p50, peak := median(p50s), median(rates)
	cpu := float64(cpuTicks) * 1000 / clockTicks / float64(max(completed, 1))
	fmt.Fprintf(os.Stderr, "nocbench: host ran %.3fx the reference probe time; raw p50 %.4f ms, peak %.1f req/s, cpu %.4f ms/job\n",
		slow, p50, peak, cpu)
	put("p50_ms", p50/slow)
	put("peak_rps", peak*slow)
	put("ok_ratio", 1-float64(t.failed)/float64(max(t.attempted, 1)))
	put("setup_s", median(setups))
	put("rss_mb", float64(usage.HWMKiB)*1024/1e6)
	put("cpu_ms_per_job", cpu/slow)
	printMetrics(w.Name, cfg, out)
	return out, nil
}

// reportSchedule writes how well the generator kept its schedule over
// n measured open-loop requests to standard error, warning when the
// client backlog kept growing.
func reportSchedule(w *workload, cfg config, n int, gen genStats) {
	if gen.Growing {
		fmt.Fprintf(os.Stderr, "nocbench: WARNING: client backlog still growing at the end of the schedule "+
			"(%d requests behind); latency percentiles are not valid at %.0f req/s\n",
			gen.BacklogMax, w.Rate)
	}
	fmt.Fprintf(os.Stderr, "nocbench: %s seed %d: %d open-loop samples (%d beyond p99), generator lag p99 %.3f ms, backlog max %d\n",
		w.Name, cfg.seed, n, n-int(0.99*float64(n)), ms(gen.LagP99), gen.BacklogMax)
}

// loadHeapLimit caps the generator's heap while collection is paused.
const loadHeapLimit = 1 << 30

// pauseGC stops garbage collection for the load phases, unless the heap
// reaches loadHeapLimit: a collection would delay the generator's sends
// on a core it shares with the servers. The returned func resumes it.
func pauseGC() func() {
	runtime.GC()
	pct := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(loadHeapLimit)
	return func() {
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(limit)
	}
}

// prime submits a repeating workload's working set once, so every
// measured request can hit the result cache.
func prime(c *http.Client, url string, st *stream) error {
	if len(st.set) == 0 {
		return nil
	}
	shots, _ := closedLoop(c, url, -len(st.set), st.set, time.Hour)
	for i := range shots {
		if _, why := outcome(&shots[i]); why != "" {
			return fmt.Errorf("priming the working set: %s", why)
		}
	}
	return nil
}

// latencies returns the shots' open-loop latencies in milliseconds, in
// due order. A failed request counts as infinitely slow: it missed every
// latency limit.
func latencies(shots []shot) []float64 {
	var out []float64
	for i := range shots {
		s := &shots[i]
		if s.Unsent || s.Err != nil || s.Status/100 != 2 {
			out = append(out, inf)
			continue
		}
		out = append(out, ms(s.latency()))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkStores reopens every backend's store after the graceful shutdown
// and asserts it holds exactly the jobs retention keeps:
// min(submitted, retention).
func checkStores(d *deployment, final []serverStats, t *tally) (storeCheck, error) {
	var sc storeCheck
	for i, dir := range d.stores {
		n, err := dirBytes(dir)
		if err != nil {
			return sc, err
		}
		sc.bytes += n
		t0 := time.Now()
		fs, err := store.OpenConfig(dir, store.FileConfig{})
		if err != nil {
			return sc, fmt.Errorf("reopening %s's store: %w", d.backends[i].name, err)
		}
		snap, err := fs.Load()
		loadMs := ms(time.Since(t0))
		cerr := fs.Close()
		if err := errors.Join(err, cerr); err != nil {
			return sc, fmt.Errorf("loading %s's store: %w", d.backends[i].name, err)
		}
		sc.loadMs = max(sc.loadMs, loadMs)
		sc.jobs += len(snap.Jobs)
		want := min(int(final[i].Submitted), retention)
		if len(snap.Jobs) != want {
			t.fail(fmt.Sprintf("%s's store holds %d jobs after shutdown, want min(%d submitted, %d retention)",
				d.backends[i].name, len(snap.Jobs), final[i].Submitted, retention), true)
		}
	}
	return sc, nil
}

// printMetrics writes the metrics as a readable table to stderr.
func printMetrics(name string, cfg config, out *result) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "nocbench: %s seed %d trace %v: correct=%v attempted=%d failed=%d\n",
		name, cfg.seed, cfg.trace, out.Correct, out.Attempted, out.Failed)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
