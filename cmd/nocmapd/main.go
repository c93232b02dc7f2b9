// Command nocmapd serves NoC mapping solves over HTTP/JSON: POST a
// serialized nocmap problem with solve options, poll or stream the
// job's progress, fetch the result, cancel mid-solve. It is a thin
// shell around repro/nocmap/server — a bounded solver pool with
// request coalescing and an LRU result cache — which itself sits
// strictly on the public nocmap API.
//
//	nocmapd                          # listen on :8537, in-memory only
//	nocmapd -addr 127.0.0.1:0        # ephemeral port, printed at startup
//	nocmapd -pool 8 -cache 512       # 8 solver workers, 512 cached results
//	nocmapd -store /var/lib/nocmapd  # durable job store: jobs, results and
//	                                 # cache survive restarts (even SIGKILL)
//	nocmapd -profile fast            # FastQueue + full parallelism defaults
//	nocmapd -id-prefix s0-           # shard-unique job IDs behind nocmapsh
//	nocmapd -replicate-to http://10.0.0.2:8537,http://10.0.0.3:8537
//	                                 # ring replication: push every job
//	                                 # record to these followers (nocmapsh
//	                                 # manages the set automatically when
//	                                 # probing is on)
//	nocmapd -store-queue 1024        # shed submissions with 429 once this
//	                                 # many store ops await their fsync
//	nocmapd -store-fault fail-every=100
//	                                 # fault-injected store (tests/chaos)
//
// See docs/SERVER.md for the full API reference with curl examples;
// cmd/nmap's -remote flag and repro/nocmap/client drive it from Go, and
// cmd/nocmapsh shards traffic across several instances.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/nocmap/server"
	"repro/nocmap/store"
)

func main() {
	addr := flag.String("addr", ":8537", "listen address (host:port; port 0 picks one)")
	pool := flag.Int("pool", 0, "solver workers (0: one per CPU)")
	queue := flag.Int("queue", 256, "max queued jobs before submissions are rejected")
	cache := flag.Int("cache", 128, "LRU result-cache entries (negative disables)")
	retention := flag.Int("retention", 1024, "finished jobs kept queryable before the oldest statuses are evicted")
	storeDir := flag.String("store", "", "durable job-store directory (empty: in-memory only)")
	profile := flag.String("profile", "repro", `service profile: "repro" (bit-exact solves) or "fast" (FastQueue + full parallelism defaults)`)
	idPrefix := flag.String("id-prefix", "", `prefix for minted job IDs (e.g. "s0-"); make it unique per backend behind a shard router`)
	replicateTo := flag.String("replicate-to", "", "comma-separated base URLs of the ring successors to replicate job records to (empty: replication off until the router pushes a target set)")
	durableAckWait := flag.Duration("durable-ack-wait", 0, "how long a durability=replicated submission waits for a follower ack before degrading to async (0: 2s default)")
	storeFault := flag.String("store-fault", "", `fault-inject the job store, e.g. "fail-every=100,latency=2ms,torn=1" (chaos testing; requires -store)`)
	storeQueue := flag.Int("store-queue", 4096, "store ops awaiting their fsync before submissions are rejected with 429")
	storeCompactBytes := flag.Int64("store-compact-bytes", 0, "WAL bytes before the store compacts regardless of op count (0: default 256MiB)")
	flag.Parse()

	cfg := server.Config{
		Pool:       *pool,
		QueueSize:  *queue,
		CacheSize:  *cache,
		Retention:  *retention,
		Profile:    server.Profile(*profile),
		IDPrefix:   *idPrefix,
		StoreQueue: *storeQueue,
	}
	for _, t := range strings.Split(*replicateTo, ",") {
		if t = strings.TrimSpace(t); t != "" {
			cfg.ReplicaTargets = append(cfg.ReplicaTargets, t)
		}
	}
	cfg.DurableAckWait = *durableAckWait
	if *storeDir != "" {
		fs, err := store.OpenConfig(*storeDir, store.FileConfig{CompactBytes: *storeCompactBytes})
		if err != nil {
			log.Fatalf("nocmapd: %v", err)
		}
		js := store.JobStore(fs)
		if *storeFault != "" {
			fault := store.NewFaultStore(js)
			if err := store.ParseFaultSpec(fault, *storeFault); err != nil {
				log.Fatalf("nocmapd: -store-fault: %v", err)
			}
			js = fault
			log.Printf("nocmapd: store faults armed: %s", *storeFault)
		}
		defer js.Close()
		cfg.Store = js
	} else if *storeFault != "" {
		log.Fatalf("nocmapd: -store-fault requires -store")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("nocmapd: %v", err)
	}
	svc, err := server.New(cfg)
	if err != nil {
		log.Fatalf("nocmapd: %v", err)
	}
	if st := svc.Stats(); st.Restored > 0 || st.Recovered > 0 {
		log.Printf("nocmapd: store replay restored %d finished jobs, recovered %d interrupted jobs",
			st.Restored, st.Recovered)
	}
	hs := &http.Server{Handler: svc.Handler()}
	log.Printf("nocmapd listening on http://%s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("nocmapd: %v", err)
		}
	case <-ctx.Done():
	}
	log.Printf("nocmapd shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("nocmapd: shutdown: %v", err)
	}
	svc.Close()
}
