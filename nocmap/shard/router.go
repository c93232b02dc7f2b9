package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/nocmap/server"
)

// Config describes the shard fleet.
type Config struct {
	// Backends are the nocmapd base URLs (e.g. "http://10.0.0.1:8537").
	// At least one is required. Each backend should be started with a
	// distinct -id-prefix so the router can route job IDs back to their
	// owner without probing.
	Backends []string
	// Replicas is the number of virtual ring points per backend
	// (<= 0: 64). More points smooth the key distribution.
	Replicas int
	// Profile must match the backends' -profile setting ("" = repro).
	// The backends fold profile defaults into a submission's options
	// before hashing it; the router applies the same fold here so it
	// routes by the exact key the backends cache by. Fleets behind one
	// router should be profile-homogeneous.
	Profile server.Profile
	// HTTPClient overrides the client used to reach backends.
	HTTPClient *http.Client
	// ProbeInterval, when positive, turns the router into the fleet's
	// replication control plane: a background prober health-checks every
	// backend on this cadence, marks backends down after FailThreshold
	// consecutive failures (promoting their replicas on the ring
	// successor) and up again after RecoverThreshold consecutive
	// successes (running the anti-entropy reconcile sweep back onto
	// them), and the router pushes each backend's replication target.
	// Zero leaves health tracking to per-request failover only.
	ProbeInterval time.Duration
	// FailThreshold is how many consecutive probe failures mark a
	// backend down (<= 0: 3).
	FailThreshold int
	// RecoverThreshold is how many consecutive probe successes mark a
	// down backend up again (<= 0: 2).
	RecoverThreshold int
	// ReplicationFactor is how many distinct ring successors each
	// backend replicates to (<= 0: 2). Effective fan-out is capped at
	// fleet size - 1 — a 2-backend fleet runs R=1 no matter the setting
	// — and recomputed on every elastic join/leave.
	ReplicationFactor int
}

// CodeUnavailable is the typed error code when no backend could take a
// request. It is the same code the client retries once on — see
// server.CodeBackendUnavailable.
const CodeUnavailable = server.CodeBackendUnavailable

// Health states a probed backend moves through.
const (
	HealthUp       = "up"
	HealthDegraded = "degraded" // failing probes, not yet past the threshold
	HealthDown     = "down"
)

// topology is the router's immutable view of the fleet: the backend
// list and the ring built over it. Elastic join/leave swaps the whole
// snapshot; in-flight requests keep using the one they started with.
// prefixes and health are index-parallel to backends; their entries are
// mutated under Router.mu but the slices themselves never change shape.
type topology struct {
	backends []string
	ring     *ring
	prefixes []backendPrefix
	health   []*backendHealth
}

type backendPrefix struct {
	prefix string
	known  bool
}

// backendHealth is the probe state machine for one backend. All fields
// are guarded by Router.mu.
type backendHealth struct {
	state string
	fails int // consecutive probe failures
	oks   int // consecutive probe successes
	// downEpoch counts up->down transitions; promotedEpoch records the
	// last epoch whose replica promotion succeeded, so each outage
	// promotes exactly once (and failed promotions retry next tick).
	downEpoch     uint64
	promotedEpoch uint64
	// promotedTo is the URL of the replica holder the last successful
	// promotion picked — where this backend's jobs answer from while it
	// is down. A URL, not an index: elastic join/leave swaps topologies
	// and invalidates indices, but the holder keeps its address.
	promotedTo string
}

// RouterStats counts the router's own work (GET /v1/stats, "router").
type RouterStats struct {
	// Routed counts submissions forwarded to a backend.
	Routed uint64 `json:"routed"`
	// Failovers counts submissions that skipped an unreachable backend.
	Failovers uint64 `json:"failovers"`
	// Redirects counts job-ID requests answered with a 307 to the
	// owning backend.
	Redirects uint64 `json:"redirects"`
	// Probes counts job-ID lookups that had to ask every backend
	// because no discovered ID prefix matched.
	Probes uint64 `json:"probes"`
	// Retries counts idempotent GETs re-sent after a transport failure.
	Retries uint64 `json:"retries"`
	// Promotions counts replica promotions triggered on a ring
	// successor after a backend went down.
	Promotions uint64 `json:"promotions"`
	// Reconciles counts anti-entropy sweeps run onto a rejoined
	// backend.
	Reconciles uint64 `json:"reconciles"`
	// Migrated counts records and cache entries moved by elastic
	// join/leave.
	Migrated uint64 `json:"migrated"`
}

// Router fronts N nocmapd backends: submissions are routed by the same
// canonical problem+options hash the backends cache by (so each
// backend's result cache stays hot for its slice of the keyspace, and
// identical submissions keep coalescing), job-ID endpoints redirect to
// the owning backend, and the introspection endpoints fan out and
// merge. Backend loss fails over to the next backend on the ring; with
// probing enabled (Config.ProbeInterval) the router also manages ring
// replication — pushing each backend's replication target, promoting a
// down backend's replicas on its successor and reconciling divergence
// when it rejoins.
type Router struct {
	cfg   Config
	httpc *http.Client // submissions: may legitimately wait on a long sync solve
	fanc  *http.Client // introspection/discovery/probes: bounded, so a wedged backend cannot hang /healthz

	mu    sync.Mutex
	topo  *topology
	stats RouterStats

	// elasticMu serializes membership changes: two concurrent joins must
	// not both migrate against the same old ring.
	elasticMu sync.Mutex

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// New builds a router over the given backends.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: no backends configured")
	}
	if !cfg.Profile.Valid() {
		return nil, fmt.Errorf("shard: unknown profile %q (want %q or %q)",
			cfg.Profile, server.ProfileRepro, server.ProfileFast)
	}
	backends := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		normalized, err := normalizeBackend(b)
		if err != nil {
			return nil, err
		}
		backends[i] = normalized
	}
	cfg.Backends = backends
	if cfg.Replicas <= 0 {
		cfg.Replicas = 64
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RecoverThreshold <= 0 {
		cfg.RecoverThreshold = 2
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 2
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	// Introspection requests answer immediately on a healthy backend, so
	// they get a hard timeout: a backend that accepts connections but
	// never responds (wedged process) must not be able to hang /healthz
	// — the endpoint monitoring uses to detect exactly that.
	fanc := &http.Client{Timeout: 10 * time.Second}
	if cfg.HTTPClient != nil {
		fanc = cfg.HTTPClient
	}
	rt := &Router{
		cfg:    cfg,
		httpc:  httpc,
		fanc:   fanc,
		topo:   newTopology(backends, cfg.Replicas),
		closed: make(chan struct{}),
	}
	if cfg.ProbeInterval > 0 {
		// The router is the replication control plane: point every
		// backend at its ring successor now, then keep probing.
		go rt.pushReplicationTargets(context.Background(), rt.snapshot())
		rt.wg.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

func normalizeBackend(b string) (string, error) {
	n := strings.TrimRight(strings.TrimSpace(b), "/")
	if !strings.HasPrefix(n, "http://") && !strings.HasPrefix(n, "https://") {
		return "", fmt.Errorf("shard: backend %q is not an http(s) URL", b)
	}
	return n, nil
}

func newTopology(backends []string, replicas int) *topology {
	t := &topology{
		backends: backends,
		ring:     buildRing(backends, replicas),
		prefixes: make([]backendPrefix, len(backends)),
		health:   make([]*backendHealth, len(backends)),
	}
	for i := range t.health {
		t.health[i] = &backendHealth{state: HealthUp}
	}
	return t
}

// snapshot returns the current topology; handlers grab it once and use
// it throughout, so a concurrent join/leave cannot shift indices under
// them.
func (rt *Router) snapshot() *topology {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.topo
}

// Close stops the health prober. The router itself is stateless beyond
// its counters and needs no further teardown.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.closed) })
	rt.wg.Wait()
}

// successorURLs resolves successorsOf indices to URLs for one backend.
func (rt *Router) successorURLs(topo *topology, i int) []string {
	idx := successorsOf(topo.backends, i, rt.cfg.ReplicationFactor)
	if len(idx) == 0 {
		return nil
	}
	urls := make([]string, len(idx))
	for k, s := range idx {
		urls[k] = topo.backends[s]
	}
	return urls
}

// Stats snapshots the router's own counters.
func (rt *Router) Stats() RouterStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

func (rt *Router) count(f func(*RouterStats)) {
	rt.mu.Lock()
	f(&rt.stats)
	rt.mu.Unlock()
}

// Handler returns the router's HTTP API — the same surface as one
// nocmapd (plus the shard control endpoints), so clients point at the
// router unchanged:
//
//	POST   /v1/jobs, /v1/solve  routed by canonical key, failover on loss
//	*      /v1/jobs/{id}...     307 redirect to the owning backend (or
//	                            its successor while the owner is down)
//	GET    /v1/algorithms       fan-out, merged union
//	GET    /v1/stats            fan-out, per-shard + summed totals
//	GET    /v1/shards           shard topology, health and router counters
//	POST   /v1/shards/join      add a backend, migrate its key ranges in
//	POST   /v1/shards/leave     remove a backend, migrate its records out
//	GET    /healthz             aggregate backend health
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("POST /v1/solve", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobRedirect)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJobRedirect)
	mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleJobRedirect)
	mux.HandleFunc("GET /v1/algorithms", rt.handleAlgorithms)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/shards", rt.handleShards)
	mux.HandleFunc("POST /v1/shards/join", rt.handleJoin)
	mux.HandleFunc("POST /v1/shards/leave", rt.handleLeave)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, pay *server.ErrorPayload) {
	writeJSON(w, status, map[string]*server.ErrorPayload{"error": pay})
}

// handleSubmit validates at the edge (the same ParseSubmit the backends
// run, so router and backend can never hash differently), computes the
// canonical key, and proxies the submission to the key's owner — or, on
// transport failure, to the next backends along the ring. Submissions
// are deliberately never re-sent to the same backend: POST /v1/jobs is
// not idempotent (a request that died after the backend accepted it
// would enqueue the work twice), so the only safe moves are forward
// along the ring — where coalescing on the canonical key absorbs the
// duplicate — or surfacing the error to the caller.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, serr := server.ReadSubmitBody(w, r)
	if serr != nil {
		writeError(w, serr.Status, serr.Payload)
		return
	}
	_, canon, spec, serr := server.ParseSubmit(body)
	if serr != nil {
		writeError(w, serr.Status, serr.Payload)
		return
	}
	// Hash the profile-folded spec — the exact key a backend running the
	// same profile caches and coalesces by.
	key := server.JobKey(canon, rt.cfg.Profile.Apply(spec))
	topo := rt.snapshot()
	var lastErr error
	for _, hop := range rt.submitOrder(topo, key) {
		resp, err := rt.forward(r.Context(), topo.backends[hop.backend], r.URL.Path, body)
		if err != nil {
			lastErr = err
			rt.count(func(s *RouterStats) { s.Failovers++ })
			if r.Context().Err() != nil {
				break // the caller is gone; stop retrying on their behalf
			}
			continue
		}
		rt.count(func(s *RouterStats) { s.Routed++ })
		if hop.away > 0 {
			// Reached a non-owner: note it in the response so operators
			// can see degraded cache locality.
			w.Header().Set("X-Nocmap-Failover", fmt.Sprint(hop.away))
		}
		copyResponse(w, resp)
		return
	}
	writeError(w, http.StatusBadGateway, &server.ErrorPayload{
		Code:    CodeUnavailable,
		Message: fmt.Sprintf("no backend reachable for key %s: %v", key, lastErr),
	})
}

// submitHop is one step of a submission's failover order: the backend
// index plus its distance from the key's true owner.
type submitHop struct {
	backend int
	away    int
}

// submitOrder is the ring failover sequence with probed-down backends
// moved to the back: a known-dead owner should not cost every
// submission a connect timeout before the live successor gets it, but
// when everything is down the router still tries everyone rather than
// trusting the prober over the wire.
func (rt *Router) submitOrder(topo *topology, key string) []submitHop {
	seq := topo.ring.sequence(key)
	hops := make([]submitHop, 0, len(seq))
	var down []submitHop
	rt.mu.Lock()
	for i, b := range seq {
		if topo.health[b].state == HealthDown {
			down = append(down, submitHop{backend: b, away: i})
			continue
		}
		hops = append(hops, submitHop{backend: b, away: i})
	}
	rt.mu.Unlock()
	return append(hops, down...)
}

// forward proxies one submission to the backend at base.
func (rt *Router) forward(ctx context.Context, base, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return rt.httpc.Do(req)
}

// copyResponse relays a backend response verbatim.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleJobRedirect answers every /v1/jobs/{id}... request with a 307
// to the backend owning the ID, resolved by the backend's discovered
// ID prefix (GET /v1/info) or, failing that, by probing. Clients —
// net/http included — follow 307s transparently, re-sending the method;
// SSE event streams ride the redirect the same way. While the owner is
// probed down, the redirect goes to its ring successor instead — the
// router first makes sure the successor has promoted the owner's
// replicas, so completed jobs answer byte-identical and live ones
// re-run there.
func (rt *Router) handleJobRedirect(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	topo := rt.snapshot()
	b, ok, definitive := rt.backendForJob(r.Context(), topo, id)
	if !ok {
		if !definitive {
			// Some backend never answered: the job may well exist there,
			// so "not found" would be a lie clients act on (abandoning
			// live jobs). Answer retryably instead.
			writeError(w, http.StatusBadGateway, &server.ErrorPayload{Code: CodeUnavailable,
				Message: fmt.Sprintf("cannot place job %q: not every shard answered", id)})
			return
		}
		writeError(w, http.StatusNotFound,
			&server.ErrorPayload{Code: server.CodeNotFound, Message: fmt.Sprintf("no job %q on any shard", id)})
		return
	}
	if promoted, ok := rt.failoverTarget(r.Context(), topo, b); ok {
		b = promoted
	}
	rt.count(func(s *RouterStats) { s.Redirects++ })
	target := topo.backends[b] + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusTemporaryRedirect)
}

// backendForJob maps a job ID to its backend: longest unique discovered
// prefix first, then a probe of every backend. The final return
// reports whether a negative answer is definitive — true only when
// every backend was actually asked and answered.
func (rt *Router) backendForJob(ctx context.Context, topo *topology, id string) (int, bool, bool) {
	if b, ok := rt.matchPrefix(topo, id); ok {
		return b, true, true
	}
	rt.discoverPrefixes(ctx, topo)
	if b, ok := rt.matchPrefix(topo, id); ok {
		return b, true, true
	}
	b, ok, definitive := rt.probeJob(ctx, topo, id)
	return b, ok, definitive
}

// matchPrefix resolves an ID against the discovered prefixes. Only a
// unique longest non-empty match wins — duplicate prefixes fall back to
// probing.
func (rt *Router) matchPrefix(topo *topology, id string) (int, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	best, bestLen, dup := -1, 0, false
	for i, p := range topo.prefixes {
		if !p.known || p.prefix == "" || !strings.HasPrefix(id, p.prefix) {
			continue
		}
		switch {
		case len(p.prefix) > bestLen:
			best, bestLen, dup = i, len(p.prefix), false
		case len(p.prefix) == bestLen:
			dup = true
		}
	}
	if best < 0 || dup {
		return 0, false
	}
	return best, true
}

// discoverPrefixes fetches /v1/info concurrently from backends whose
// prefix is still unknown, so one wedged backend costs one timeout, not
// one per backend. Unreachable backends stay unknown and are retried on
// the next unresolved lookup.
func (rt *Router) discoverPrefixes(ctx context.Context, topo *topology) {
	var wg sync.WaitGroup
	for i := range topo.backends {
		rt.mu.Lock()
		known := topo.prefixes[i].known
		rt.mu.Unlock()
		if known {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := rt.fetchInfo(ctx, topo.backends[i])
			if err != nil {
				return
			}
			rt.mu.Lock()
			topo.prefixes[i] = backendPrefix{prefix: info.IDPrefix, known: true}
			rt.mu.Unlock()
		}(i)
	}
	wg.Wait()
}

func (rt *Router) fetchInfo(ctx context.Context, base string) (*server.Info, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/info", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.fanc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard: %s/v1/info answered HTTP %d", base, resp.StatusCode)
	}
	var info server.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// probeJob asks every backend for the job concurrently — the fallback
// when backends run without distinct ID prefixes. The final return
// reports whether a miss is definitive: false when any backend failed
// to answer, because the job could live there.
func (rt *Router) probeJob(ctx context.Context, topo *topology, id string) (int, bool, bool) {
	rt.count(func(s *RouterStats) { s.Probes++ })
	results := rt.fanOut(ctx, topo, "/v1/jobs/"+id, lookupAttempts)
	owner, found, definitive := 0, false, true
	for i, res := range results {
		switch {
		case res.err != nil:
			definitive = false
		case res.status == http.StatusOK:
			if !found {
				owner, found = i, true
			}
		}
	}
	return owner, found, definitive
}

// Idempotent-GET retry budget. Reads (stats, health, info, job
// lookups, record transfers) are safe to re-send: a duplicate read
// changes nothing, so a flaky connect or a briefly-restarting backend
// should cost a retry, not an error. Submissions get no such budget —
// see handleSubmit.
const (
	lookupAttempts  = 3
	retryBaseDelay  = 50 * time.Millisecond
	retryMaxDelay   = 500 * time.Millisecond
	migrateAttempts = 3
)

// getRetry issues an idempotent GET with up to attempts tries, backing
// off exponentially (capped, jittered) between failures.
func (rt *Router) getRetry(ctx context.Context, url string, attempts int) (*http.Response, error) {
	var lastErr error
	delay := retryBaseDelay
	for try := 0; try < attempts; try++ {
		if try > 0 {
			rt.count(func(s *RouterStats) { s.Retries++ })
			sleep := delay/2 + time.Duration(rand.Int63n(int64(delay)/2+1)) // jitter: [d/2, d)
			delay *= 2
			if delay > retryMaxDelay {
				delay = retryMaxDelay
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(sleep):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := rt.fanc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// fanOut issues one GET per backend concurrently (each with a retry
// budget) and returns the responses (nil body on transport failure,
// paired with the error).
type fanResult struct {
	status int
	body   []byte
	err    error
}

func (rt *Router) fanOut(ctx context.Context, topo *topology, path string, attempts int) []fanResult {
	results := make([]fanResult, len(topo.backends))
	var wg sync.WaitGroup
	for i := range topo.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := rt.getRetry(ctx, topo.backends[i]+path, attempts)
			if err != nil {
				results[i] = fanResult{err: err}
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			results[i] = fanResult{status: resp.StatusCode, body: body, err: err}
		}(i)
	}
	wg.Wait()
	return results
}

// handleAlgorithms merges the backends' registries into one sorted
// union.
func (rt *Router) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	topo := rt.snapshot()
	results := rt.fanOut(r.Context(), topo, "/v1/algorithms", lookupAttempts)
	seen := map[string]bool{}
	reachable := false
	for _, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			continue
		}
		var out struct {
			Algorithms []string `json:"algorithms"`
		}
		if json.Unmarshal(res.body, &out) != nil {
			continue
		}
		reachable = true
		for _, a := range out.Algorithms {
			seen[a] = true
		}
	}
	if !reachable {
		writeError(w, http.StatusBadGateway,
			&server.ErrorPayload{Code: CodeUnavailable, Message: "no backend reachable"})
		return
	}
	union := make([]string, 0, len(seen))
	for a := range seen {
		union = append(union, a)
	}
	sort.Strings(union)
	writeJSON(w, http.StatusOK, map[string][]string{"algorithms": union})
}

// ShardStats is one backend's slice of the merged GET /v1/stats view.
type ShardStats struct {
	URL   string        `json:"url"`
	Error string        `json:"error,omitempty"`
	Stats *server.Stats `json:"stats,omitempty"`
}

// MergedStats is the router's GET /v1/stats response: summed totals,
// the per-shard breakdown and the router's own counters.
type MergedStats struct {
	Total  server.Stats `json:"total"`
	Shards []ShardStats `json:"shards"`
	Router RouterStats  `json:"router"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	topo := rt.snapshot()
	results := rt.fanOut(r.Context(), topo, "/v1/stats", lookupAttempts)
	merged := MergedStats{Router: rt.Stats()}
	for i, res := range results {
		entry := ShardStats{URL: topo.backends[i]}
		switch {
		case res.err != nil:
			entry.Error = res.err.Error()
		case res.status != http.StatusOK:
			entry.Error = fmt.Sprintf("HTTP %d", res.status)
		default:
			var st server.Stats
			if err := json.Unmarshal(res.body, &st); err != nil {
				entry.Error = err.Error()
			} else {
				entry.Stats = &st
				merged.Total = addStats(merged.Total, st)
			}
		}
		merged.Shards = append(merged.Shards, entry)
	}
	writeJSON(w, http.StatusOK, merged)
}

// addStats sums b into a: every numeric field adds and every bool
// ORs. ReplicaTargets, a per-backend list, stays in the shard rows.
func addStats(a, b server.Stats) server.Stats {
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := range av.NumField() {
		switch f, g := av.Field(i), bv.Field(i); {
		case f.CanInt():
			f.SetInt(f.Int() + g.Int())
		case f.CanUint():
			f.SetUint(f.Uint() + g.Uint())
		case f.Kind() == reflect.Bool:
			f.SetBool(f.Bool() || g.Bool())
		}
	}
	return a
}

// ShardBackend is one backend's row in the GET /v1/shards fleet view.
type ShardBackend struct {
	URL string `json:"url"`
	// Prefix is the backend's discovered job-ID prefix ("" while
	// undiscovered).
	Prefix string `json:"prefix,omitempty"`
	// Health is the probed state: "up", "degraded" or "down". Without
	// probing (Config.ProbeInterval zero) every backend reads "up".
	Health string `json:"health"`
	// Successors is the replica holder set — the backend's
	// ReplicationFactor distinct ring successors, nearest first (empty
	// for a single-backend fleet).
	Successors []string `json:"successors,omitempty"`
	// ReplicationLag is the backend's summed acked-watermark lag across
	// its replication streams (terminal records sent but not yet
	// acknowledged as persisted by a follower). Filled from a live
	// /v1/stats fan-out; zero when the backend did not answer.
	ReplicationLag uint64 `json:"replication_lag,omitempty"`
	// ReplicationStalled reports a replication stream stuck past its
	// failure threshold on this backend.
	ReplicationStalled bool `json:"replication_stalled,omitempty"`
}

// ShardInfo is the GET /v1/shards response.
type ShardInfo struct {
	Backends []string `json:"backends"`
	Replicas int      `json:"replicas"`
	// ReplicationFactor is how many distinct ring successors each
	// backend replicates to (capped at fleet size - 1 in effect).
	ReplicationFactor int            `json:"replication_factor"`
	Fleet             []ShardBackend `json:"fleet"`
	Router            RouterStats    `json:"router"`
}

func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	topo := rt.snapshot()
	info := ShardInfo{
		Backends:          append([]string(nil), topo.backends...),
		Replicas:          rt.cfg.Replicas,
		ReplicationFactor: rt.cfg.ReplicationFactor,
	}
	// Live per-backend replication lag, gathered before taking the lock:
	// the fleet view is where operators look first when durability
	// degrades, so it carries the watermark lag next to the topology.
	results := rt.fanOut(r.Context(), topo, "/v1/stats", 1)
	lag := make([]uint64, len(results))
	stalled := make([]bool, len(results))
	for i, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			continue
		}
		var st server.Stats
		if json.Unmarshal(res.body, &st) == nil {
			lag[i] = st.ReplicationLag
			stalled[i] = st.ReplicationStalled
		}
	}
	rt.mu.Lock()
	info.Router = rt.stats
	for i, b := range topo.backends {
		row := ShardBackend{
			URL:                b,
			Health:             topo.health[i].state,
			Prefix:             topo.prefixes[i].prefix,
			Successors:         rt.successorURLs(topo, i),
			ReplicationLag:     lag[i],
			ReplicationStalled: stalled[i],
		}
		info.Fleet = append(info.Fleet, row)
	}
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// handleHealth reports aggregate health: 200 while at least one backend
// answers its /healthz, 503 when none do. The check is live (one probe
// per backend, no retries) — monitoring wants the truth now, not the
// prober's smoothed view.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	topo := rt.snapshot()
	results := rt.fanOut(r.Context(), topo, "/healthz", 1)
	backends := make(map[string]string, len(results))
	up := 0
	for i, res := range results {
		switch {
		case res.err != nil:
			backends[topo.backends[i]] = res.err.Error()
		case res.status != http.StatusOK:
			backends[topo.backends[i]] = fmt.Sprintf("HTTP %d", res.status)
		default:
			backends[topo.backends[i]] = "ok"
			up++
		}
	}
	status := http.StatusOK
	overall := "ok"
	switch {
	case up == 0:
		status, overall = http.StatusServiceUnavailable, "down"
	case up < len(results):
		overall = "degraded"
	}
	writeJSON(w, status, map[string]any{"status": overall, "backends": backends})
}
