package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/nocmap/server"
)

// The health prober is the fleet's failure detector and the trigger for
// the replication state machine. Each tick it probes every backend's
// /healthz; FailThreshold consecutive failures mark a backend down and
// promote its replicas on the ring successor (exactly once per outage —
// a failed promotion retries next tick), RecoverThreshold consecutive
// successes mark it up again and run the anti-entropy sweep: the
// successor's records for the rejoined backend's ID prefix are pushed
// back onto it over POST /v1/reconcile, where terminal-beats-live
// adoption converges the divergent histories. The tick also re-pushes
// every reachable backend's replication target, so a backend restarted
// without its -replicate-to flag self-heals into the ring.

func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.closed:
			return
		case <-ticker.C:
			rt.probeTick()
		}
	}
}

func (rt *Router) probeTick() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	topo := rt.snapshot()
	// One live probe per backend, no retry budget: the thresholds are
	// the smoothing, a retrying probe would just slow detection down.
	results := rt.fanOut(ctx, topo, "/healthz", 1)
	var promote, rejoin, retarget []int
	rt.mu.Lock()
	for i, res := range results {
		h := topo.health[i]
		ok := res.err == nil && res.status == http.StatusOK
		if ok {
			h.fails = 0
			h.oks++
			if h.state == HealthDown {
				if h.oks >= rt.cfg.RecoverThreshold {
					h.state = HealthUp
					rejoin = append(rejoin, i)
				}
			} else {
				h.state = HealthUp
			}
			retarget = append(retarget, i)
			continue
		}
		h.oks = 0
		h.fails++
		if h.fails >= rt.cfg.FailThreshold {
			if h.state != HealthDown {
				h.state = HealthDown
				h.downEpoch++
			}
		} else if h.state == HealthUp {
			h.state = HealthDegraded
		}
		if h.state == HealthDown && h.promotedEpoch != h.downEpoch {
			promote = append(promote, i)
		}
	}
	rt.mu.Unlock()

	// The control-plane HTTP happens outside the lock.
	rt.discoverPrefixes(ctx, topo)
	for _, i := range retarget {
		rt.pushReplicationTarget(ctx, topo, i)
	}
	for _, i := range promote {
		rt.promoteReplicas(ctx, topo, i)
	}
	for _, i := range rejoin {
		rt.reconcileRejoin(ctx, topo, i)
	}
}

// promoteReplicas promotes a down backend's replicas on the
// best-informed surviving holder. With replication factor R the dead
// backend's records live on up to R ring successors; the holders can
// disagree (one may have acked further into the origin's terminal
// history before the crash), so the router asks each surviving holder
// for its acked watermark (GET /v1/replication/watermark) and promotes
// on the one holding the highest terminal seq — ties broken by replica
// count, so a holder with live-only records (watermark 0) still wins
// over an empty one. Reports success; a false return leaves
// promotedEpoch behind downEpoch so the next tick (or the next job
// lookup) retries.
func (rt *Router) promoteReplicas(ctx context.Context, topo *topology, i int) bool {
	holders := successorsOf(topo.backends, i, rt.cfg.ReplicationFactor)
	if len(holders) == 0 {
		return false // single-backend fleet: nowhere to promote
	}
	rt.mu.Lock()
	prefix := topo.prefixes[i]
	epoch := topo.health[i].downEpoch
	live := make([]int, 0, len(holders))
	for _, h := range holders {
		if topo.health[h].state != HealthDown {
			live = append(live, h)
		}
	}
	rt.mu.Unlock()
	if !prefix.known || prefix.prefix == "" {
		// Never discovered the backend's ID prefix while it was alive —
		// there is no origin to promote by. Keep retrying; discovery may
		// still land if the backend flaps back up.
		return false
	}
	if len(live) == 0 {
		return false // every holder is down too; retry next tick
	}
	best, bestSeq, bestReplicas := -1, uint64(0), -1
	for _, h := range live {
		var wm server.WatermarkResponse
		url := topo.backends[h] + "/v1/replication/watermark?origin=" + prefix.prefix
		resp, err := rt.getRetry(ctx, url, 1)
		if err != nil {
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&wm)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		if best < 0 || wm.HighSeq > bestSeq ||
			(wm.HighSeq == bestSeq && wm.Replicas > bestReplicas) {
			best, bestSeq, bestReplicas = h, wm.HighSeq, wm.Replicas
		}
	}
	if best < 0 {
		// No holder answered its watermark; fall back to the first live
		// one rather than leaving the outage unpromoted.
		best = live[0]
	}
	var resp server.PromoteResponse
	err := rt.postJSON(ctx, topo.backends[best]+"/v1/promote",
		server.PromoteRequest{Origin: prefix.prefix}, &resp)
	if err != nil {
		return false
	}
	rt.mu.Lock()
	h := topo.health[i]
	if h.promotedEpoch < epoch {
		h.promotedEpoch = epoch
		h.promotedTo = topo.backends[best]
		rt.stats.Promotions++
	}
	rt.mu.Unlock()
	return true
}

// reconcileRejoin runs the anti-entropy sweep onto a backend that just
// came back: everything every replica holder keeps under the rejoined
// backend's ID prefix — the promoted outcomes of its lost jobs — is
// pushed back, and terminal-beats-live adoption on the backend folds
// it in. With replication factor R the holders can diverge (only one
// was promoted; the others stopped at whatever they had acked), so the
// sweep merges from all of them — adoption keeps the highest-seq
// terminal record per job, whichever holder it came from.
func (rt *Router) reconcileRejoin(ctx context.Context, topo *topology, i int) {
	holders := successorsOf(topo.backends, i, rt.cfg.ReplicationFactor)
	if len(holders) == 0 {
		return
	}
	rt.mu.Lock()
	prefix := topo.prefixes[i]
	rt.mu.Unlock()
	if !prefix.known || prefix.prefix == "" {
		return
	}
	merged := false
	for _, h := range holders {
		batch, err := rt.fetchRecords(ctx, topo.backends[h], prefix.prefix)
		if err != nil || len(batch.Ops) == 0 {
			continue
		}
		var resp server.ReconcileResponse
		if rt.postJSON(ctx, topo.backends[i]+"/v1/reconcile", batch, &resp) != nil {
			continue
		}
		merged = true
	}
	if merged {
		rt.count(func(s *RouterStats) { s.Reconciles++ })
	}
}

// failoverTarget maps a backend to where its jobs answer from right
// now: itself while up, the promoted replica holder while probed down.
// Before redirecting it makes sure the current outage's promotion
// actually ran — a lookup racing the prober must not 404 on a holder
// for want of a promotion that was about to happen. The promotion
// records which holder won (watermark-best of the R successors), so the
// redirect follows promotedTo rather than assuming the first successor;
// if the promoted holder is itself down — the double-failure case — the
// redirect falls through to the first live successor, and the next
// probe tick re-promotes there.
func (rt *Router) failoverTarget(ctx context.Context, topo *topology, b int) (int, bool) {
	rt.mu.Lock()
	h := topo.health[b]
	down := h.state == HealthDown
	needPromote := down && h.promotedEpoch != h.downEpoch
	rt.mu.Unlock()
	if !down {
		return b, false
	}
	holders := successorsOf(topo.backends, b, rt.cfg.ReplicationFactor)
	if len(holders) == 0 {
		return b, false
	}
	if needPromote {
		rt.promoteReplicas(ctx, topo, b)
	}
	rt.mu.Lock()
	promotedTo := h.promotedTo
	rt.mu.Unlock()
	target := -1
	for _, s := range holders {
		rt.mu.Lock()
		holderDown := topo.health[s].state == HealthDown
		rt.mu.Unlock()
		if holderDown {
			continue
		}
		if topo.backends[s] == promotedTo {
			target = s
			break
		}
		if target < 0 {
			target = s
		}
	}
	if target < 0 {
		target = holders[0] // every holder down: redirect somewhere deterministic
	}
	return target, true
}

// pushReplicationTarget points backend i at its replica holder set —
// its ReplicationFactor distinct ring successors (or at nothing, in a
// single-backend fleet). Idempotent and cheap on the backend — an
// unchanged set is a no-op there — so the prober re-pushes it every
// tick. Best-effort: an unreachable backend will be re-pushed when it
// answers probes again.
func (rt *Router) pushReplicationTarget(ctx context.Context, topo *topology, i int) {
	target := server.ReplicationTarget{URLs: rt.successorURLs(topo, i)}
	var resp server.ReplicationTarget
	_ = rt.postJSONMethod(ctx, http.MethodPut, topo.backends[i]+"/v1/replication/target",
		target, &resp)
}

// pushReplicationTargets wires the whole fleet's replication ring.
func (rt *Router) pushReplicationTargets(ctx context.Context, topo *topology) {
	for i := range topo.backends {
		rt.pushReplicationTarget(ctx, topo, i)
	}
}

// fetchRecords pulls a backend's records (and cache) for one ID prefix
// — the transfer half of anti-entropy and migration. Idempotent GET,
// so it gets the retry budget.
func (rt *Router) fetchRecords(ctx context.Context, base, prefix string) (*server.RecordBatch, error) {
	url := base + "/v1/records"
	if prefix != "" {
		url += "?prefix=" + prefix
	}
	resp, err := rt.getRetry(ctx, url, migrateAttempts)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard: %s answered HTTP %d", url, resp.StatusCode)
	}
	var out server.RecordBatch
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (rt *Router) postJSON(ctx context.Context, url string, in, out any) error {
	return rt.postJSONMethod(ctx, http.MethodPost, url, in, out)
}

func (rt *Router) postJSONMethod(ctx context.Context, method, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.fanc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("shard: %s answered HTTP %d", url, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
