package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// deployment is the set of server processes one run drives: a single
// nocmapd, or nocmapsh in front of two nocmapd backends.
type deployment struct {
	backends []*proc
	stores   []string // each backend's -store directory
	router   *proc    // nil without a fleet
}

// url is where clients submit.
func (d *deployment) url() string {
	if d.router != nil {
		return d.router.url
	}
	return d.backends[0].url
}

// procs lists every server process.
func (d *deployment) procs() []*proc {
	ps := append([]*proc(nil), d.backends...)
	if d.router != nil {
		ps = append(ps, d.router)
	}
	return ps
}

// storeFault is the flush policy every backend runs under: each store
// batch pays one SSD-like 1 ms fsync, so a batch costs the same on any
// host.
const storeFault = "latency=1ms"

// deploy starts the workload's servers under dir and waits until they
// are ready: every /healthz answers, and in a fleet every backend has
// been handed its replication target by the router's prober.
func deploy(ctx context.Context, w *workload, bin, dir string, c *http.Client) (*deployment, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	n := 1
	if w.Fleet {
		n = 2
	}
	d := &deployment{}
	for i := 0; i < n; i++ {
		st := filepath.Join(dir, fmt.Sprintf("store%d", i))
		if err := os.MkdirAll(st, 0o755); err != nil {
			return nil, err
		}
		args := []string{"-addr", "127.0.0.1:0", "-store", st, "-store-fault", storeFault}
		if w.Fleet {
			args = append(args, "-id-prefix", fmt.Sprintf("s%d-", i))
		}
		p, err := startProc(ctx, fmt.Sprintf("nocmapd%d", i), filepath.Join(bin, "nocmapd"), args,
			filepath.Join(dir, fmt.Sprintf("nocmapd%d.log", i)))
		if err != nil {
			d.kill()
			return nil, err
		}
		d.backends = append(d.backends, p)
		d.stores = append(d.stores, st)
	}
	if w.Fleet {
		urls := make([]string, n)
		for i, b := range d.backends {
			urls[i] = b.url
		}
		args := []string{"-addr", "127.0.0.1:0", "-backends", strings.Join(urls, ","), "-probe", "100ms"}
		p, err := startProc(ctx, "nocmapsh", filepath.Join(bin, "nocmapsh"), args, filepath.Join(dir, "nocmapsh.log"))
		if err != nil {
			d.kill()
			return nil, err
		}
		d.router = p
	}
	for _, p := range d.procs() {
		if err := waitHealthy(ctx, c, p.url); err != nil {
			d.kill()
			return nil, err
		}
	}
	if w.Fleet {
		if err := waitReplicating(ctx, c, d.backends); err != nil {
			d.kill()
			return nil, err
		}
	}
	return d, nil
}

// waitReplicating polls each backend's /v1/info until the router has
// pushed it a replication target, so durability=replicated submissions
// are acked by a follower rather than degraded.
func waitReplicating(ctx context.Context, c *http.Client, backends []*proc) error {
	for _, b := range backends {
		for {
			var info struct {
				Targets []string `json:"replica_targets"`
			}
			if err := getJSON(c, b.url+"/v1/info", &info); err == nil && len(info.Targets) > 0 {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s never got a replication target: %w", b.name, ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// stop shuts the router down first, then the backends, each gracefully.
func (d *deployment) stop() error {
	var errs []string
	if d.router != nil {
		if err := d.router.stop(15 * time.Second); err != nil {
			errs = append(errs, err.Error())
		}
	}
	for _, b := range d.backends {
		if err := b.stop(15 * time.Second); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("stopping servers: %s", strings.Join(errs, "; "))
	}
	return nil
}

func (d *deployment) kill() {
	for _, p := range d.procs() {
		p.kill()
	}
}

// usage sums VmHWM and CPU ticks over every server process.
func (d *deployment) usage() (procUsage, error) {
	var sum procUsage
	for _, p := range d.procs() {
		u, err := readUsage(p.cmd.Process.Pid)
		if err != nil {
			return procUsage{}, fmt.Errorf("%s: %w", p.name, err)
		}
		sum.HWMKiB += u.HWMKiB
		sum.CPUTicks += u.CPUTicks
	}
	return sum, nil
}

// serverStats is the subset of nocmapd's GET /v1/stats the benchmark
// reads.
type serverStats struct {
	Submitted           uint64 `json:"submitted"`
	CacheHits           uint64 `json:"cache_hits"`
	Coalesced           uint64 `json:"coalesced"`
	ProblemsReused      uint64 `json:"problems_reused"`
	StoreErrors         uint64 `json:"store_errors"`
	StorePending        int    `json:"store_pending"`
	Compactions         uint64 `json:"compactions"`
	Replicated          uint64 `json:"replicated"`
	ReplicationLag      uint64 `json:"replication_lag"`
	DurableAcks         uint64 `json:"durable_acks"`
	DurableAcksDegraded uint64 `json:"durable_acks_degraded"`
	QueueLen            int    `json:"queue_len"`
}

// routerStats is the router's own counters in nocmapsh's GET /v1/stats.
type routerStats struct {
	Router struct {
		Retries   uint64 `json:"retries"`
		Failovers uint64 `json:"failovers"`
	} `json:"router"`
}

// backendStats fetches every backend's counters.
func (d *deployment) backendStats(c *http.Client) ([]serverStats, error) {
	out := make([]serverStats, len(d.backends))
	for i, b := range d.backends {
		if err := getJSON(c, b.url+"/v1/stats", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sumStats adds the counters of several backends.
func sumStats(ss []serverStats) serverStats {
	var t serverStats
	for _, s := range ss {
		t.Submitted += s.Submitted
		t.CacheHits += s.CacheHits
		t.Coalesced += s.Coalesced
		t.ProblemsReused += s.ProblemsReused
		t.StoreErrors += s.StoreErrors
		t.StorePending += s.StorePending
		t.Compactions += s.Compactions
		t.Replicated += s.Replicated
		t.ReplicationLag += s.ReplicationLag
		t.DurableAcks += s.DurableAcks
		t.DurableAcksDegraded += s.DurableAcksDegraded
		t.QueueLen += s.QueueLen
	}
	return t
}
