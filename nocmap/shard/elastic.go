package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"repro/nocmap/server"
	"repro/nocmap/store"
)

// Elastic membership: POST /v1/shards/join adds a backend to the ring,
// POST /v1/shards/leave removes one. Both recompute the ring and
// migrate ONLY the moved key ranges — the consistent-hash ring
// guarantees a surviving backend's keys never move (the property the
// ring tests pin), so join streams just the ranges the newcomer now
// owns and leave streams just the departing backend's records to their
// new owners. Migrated records are adopted through the same
// terminal-beats-live POST /v1/reconcile that anti-entropy uses.

// ElasticRequest is the body of POST /v1/shards/join and /leave.
type ElasticRequest struct {
	// URL is the backend's base URL (e.g. "http://10.0.0.4:8537").
	URL string `json:"url"`
}

// ElasticResponse reports the fleet after a membership change.
type ElasticResponse struct {
	Backends []string `json:"backends"`
	// Migrated counts the records and cache entries streamed to their
	// new owners.
	Migrated int `json:"migrated"`
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req ElasticRequest
	if !decodeElastic(w, r, &req) {
		return
	}
	url, err := normalizeBackend(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest,
			&server.ErrorPayload{Code: server.CodeBadRequest, Message: err.Error()})
		return
	}
	rt.elasticMu.Lock()
	defer rt.elasticMu.Unlock()
	topo := rt.snapshot()
	for _, b := range topo.backends {
		if b == url {
			writeError(w, http.StatusBadRequest, &server.ErrorPayload{
				Code: server.CodeBadRequest, Message: "backend " + url + " is already in the fleet"})
			return
		}
	}
	newBackends := append(append([]string(nil), topo.backends...), url)
	next := rt.rebuildTopology(topo, newBackends)
	newIdx := len(newBackends) - 1

	// Stream the newcomer's key ranges in: from every current backend,
	// the terminal records and cache entries whose key the new ring
	// assigns to the newcomer. Live jobs stay where they run — their
	// IDs route back to the backend that owns them regardless of the
	// ring, and moving a half-done computation buys nothing.
	migrated := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range topo.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batch, err := rt.fetchRecords(r.Context(), topo.backends[i], "")
			if err != nil {
				return // unreachable donor: its successor's replicas cover it
			}
			var move server.RecordBatch
			for _, op := range batch.Ops {
				live := op.Rec != nil && !store.Terminal(op.Rec.State)
				if key := opKey(op); key != "" && !live && next.ring.owner(key) == newIdx {
					move.Ops = append(move.Ops, op)
				}
			}
			if len(move.Ops) == 0 {
				return
			}
			var resp server.ReconcileResponse
			if rt.postJSON(r.Context(), url+"/v1/reconcile", move, &resp) != nil {
				return
			}
			mu.Lock()
			migrated += len(move.Ops)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	rt.count(func(s *RouterStats) { s.Migrated += uint64(migrated) })

	rt.install(next)
	rt.pushReplicationTargets(r.Context(), next) //nocmapvet:allow blockingunderlock elasticMu intentionally serializes membership changes end-to-end; docs/STATIC_ANALYSIS.md#baselines
	writeJSON(w, http.StatusOK, ElasticResponse{
		Backends: append([]string(nil), next.backends...), Migrated: migrated})
}

func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req ElasticRequest
	if !decodeElastic(w, r, &req) {
		return
	}
	url, err := normalizeBackend(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest,
			&server.ErrorPayload{Code: server.CodeBadRequest, Message: err.Error()})
		return
	}
	rt.elasticMu.Lock()
	defer rt.elasticMu.Unlock()
	topo := rt.snapshot()
	leaving := -1
	for i, b := range topo.backends {
		if b == url {
			leaving = i
			break
		}
	}
	if leaving < 0 {
		writeError(w, http.StatusNotFound, &server.ErrorPayload{
			Code: server.CodeNotFound, Message: "backend " + url + " is not in the fleet"})
		return
	}
	if len(topo.backends) == 1 {
		writeError(w, http.StatusBadRequest, &server.ErrorPayload{
			Code: server.CodeBadRequest, Message: "cannot remove the last backend"})
		return
	}
	newBackends := make([]string, 0, len(topo.backends)-1)
	for i, b := range topo.backends {
		if i != leaving {
			newBackends = append(newBackends, b)
		}
	}
	next := rt.rebuildTopology(topo, newBackends)

	// Stream everything off the departing backend to each record's new
	// owner — terminal records for history and cache warmth, live ones
	// to re-run. A graceful leave drains this way; if the backend is
	// already unreachable the migration is skipped and its replicas on
	// the ring successor (promoted when it went down) stand in.
	migrated := 0
	if batch, err := rt.fetchRecords(r.Context(), url, ""); err == nil { //nocmapvet:allow blockingunderlock elasticMu intentionally serializes membership changes end-to-end; docs/STATIC_ANALYSIS.md#baselines
		byOwner := make(map[int]*server.RecordBatch)
		for _, op := range batch.Ops {
			key := opKey(op)
			if key == "" {
				continue
			}
			owner := next.ring.owner(key)
			if byOwner[owner] == nil {
				byOwner[owner] = &server.RecordBatch{}
			}
			byOwner[owner].Ops = append(byOwner[owner].Ops, op)
		}
		// Drain owners in ring order, not map order, so a leave always
		// issues the same reconcile sequence for the same fleet state.
		owners := make([]int, 0, len(byOwner))
		for owner := range byOwner {
			owners = append(owners, owner)
		}
		sort.Ints(owners)
		for _, owner := range owners {
			move := byOwner[owner]
			var resp server.ReconcileResponse
			if rt.postJSON(r.Context(), next.backends[owner]+"/v1/reconcile", *move, &resp) != nil { //nocmapvet:allow blockingunderlock elasticMu intentionally serializes membership changes end-to-end; docs/STATIC_ANALYSIS.md#baselines
				continue
			}
			migrated += len(move.Ops)
		}
		// Decommission: stop the departed backend's replication stream.
		rt.postJSONMethod(r.Context(), http.MethodPut, url+"/v1/replication/target", //nocmapvet:allow blockingunderlock elasticMu intentionally serializes membership changes end-to-end; docs/STATIC_ANALYSIS.md#baselines
			server.ReplicationTarget{}, nil)
	}
	rt.count(func(s *RouterStats) { s.Migrated += uint64(migrated) })

	rt.install(next)
	rt.pushReplicationTargets(r.Context(), next) //nocmapvet:allow blockingunderlock elasticMu intentionally serializes membership changes end-to-end; docs/STATIC_ANALYSIS.md#baselines
	writeJSON(w, http.StatusOK, ElasticResponse{
		Backends: append([]string(nil), next.backends...), Migrated: migrated})
}

// opKey is the JobKey a job or cache op carries, "" for neither.
func opKey(op store.Op) string {
	if op.Rec != nil {
		return op.Rec.Key
	}
	return op.Key
}

// rebuildTopology derives the topology for a new membership set,
// carrying over the discovered prefix and live health state of every
// surviving backend (matched by URL) so a membership change never
// resets the failure detector.
func (rt *Router) rebuildTopology(old *topology, newBackends []string) *topology {
	next := newTopology(newBackends, rt.cfg.Replicas)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, b := range newBackends {
		for j, ob := range old.backends {
			if ob == b {
				next.prefixes[i] = old.prefixes[j]
				next.health[i] = old.health[j]
				break
			}
		}
	}
	return next
}

// install swaps the router onto a new topology.
func (rt *Router) install(next *topology) {
	rt.mu.Lock()
	rt.topo = next
	rt.mu.Unlock()
}

// maxElasticBodyBytes caps a membership-change body — it only ever
// carries one URL.
const maxElasticBodyBytes = 1 << 20

func decodeElastic(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxElasticBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, &server.ErrorPayload{
			Code: server.CodeBadRequest, Message: "reading request body: " + err.Error()})
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, &server.ErrorPayload{
			Code: server.CodeBadRequest, Message: fmt.Sprintf("parsing request body: %v", err)})
		return false
	}
	return true
}
