package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/nocmap/store"
)

// walServer runs a server on a FileStore that never compacts, so its
// one WAL segment holds every line the server wrote. settle waits for
// the write-behind and returns the segment's bytes.
func walServer(t *testing.T, cfg Config) (h http.Handler, settle func() []byte) {
	t.Helper()
	dir := t.TempDir()
	fs, err := store.OpenConfig(dir, store.FileConfig{CompactOps: 1 << 30, CompactBytes: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	cfg.Store = fs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close) // runs before fs.Close
	return s.Handler(), func() []byte {
		t.Helper()
		if err := s.syncStore(context.Background(), s.storeTicket()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "wal.000001.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
}

// solved posts body to /v1/solve and returns the done job's status.
func solved(t *testing.T, h http.Handler, body []byte) JobStatus {
	t.Helper()
	rec := postTo(h, "/v1/solve", body)
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK || st.State != StateDone {
		t.Fatalf("solve answered %d %s (%v)", rec.Code, rec.Body, err)
	}
	return st
}

// TestCacheHitWALBytes holds the WAL volume of a cache hit: its
// terminal record names the result by key instead of carrying it, so
// 500 hits on the hot-repeat shape (a ~3.4 KB result) grow the WAL by
// at most 600 bytes each, retention's deletes included.
func TestCacheHitWALBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/canonical_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct{ Name, Body string }
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	var body []byte
	for _, c := range cases {
		if c.Name == "hot-repeat/nmap-split" {
			body = []byte(c.Body)
		}
	}
	h, settle := walServer(t, Config{Pool: 1, QueueSize: 8, CacheSize: 8, Retention: 16})
	first := solved(t, h, body)
	if len(first.Result) < 2000 {
		t.Fatalf("the hot-repeat result is %d bytes; the bound assumes a large one", len(first.Result))
	}
	before := len(settle())
	const hits = 500
	for i := 0; i < hits; i++ {
		if st := solved(t, h, body); !st.CacheHit {
			t.Fatalf("hit %d was solved", i)
		}
	}
	wal := settle()
	per := (len(wal) - before) / hits
	t.Logf("%d hits on a %d-byte result: %d WAL bytes per hit", hits, len(first.Result), per)
	if per > 600 {
		t.Fatalf("a cache hit writes %d WAL bytes, want at most 600", per)
	}
	if n := bytes.Count(wal, first.Result); n != 1 {
		t.Fatalf("the WAL holds the result %d times, want once", n)
	}
}

// TestSolvedResultWrittenOnce: a solved job's result reaches the WAL
// once, though both its cache entry and its terminal record hold it.
func TestSolvedResultWrittenOnce(t *testing.T) {
	h, settle := walServer(t, Config{Pool: 1, QueueSize: 8, CacheSize: 64})
	var results [][]byte
	for i := 0; i < 20; i++ {
		body := fmt.Appendf(nil, `{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":%d},`+
			`{"from":"b","to":"c","bw":50}]},"topology":{"kind":"mesh","w":2,"h":2,"link_bw":1000}}}`, 100+i)
		results = append(results, solved(t, h, body).Result)
	}
	wal := settle()
	for i, res := range results {
		if n := bytes.Count(wal, res); n != 1 {
			t.Fatalf("job %d's result is in the WAL %d times, want once: %s", i, n, res)
		}
	}
}

// TestStoreWriteCounters: one sync solve on a lone durable server
// moves store_batches, and store_wal_bytes reads the WAL's size.
func TestStoreWriteCounters(t *testing.T) {
	h, settle := walServer(t, Config{Pool: 1, QueueSize: 8, CacheSize: 8})
	stats := func() Stats {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := stats(); st.StoreBatches != 0 || st.StoreWALBytes != 0 {
		t.Fatalf("an idle server reads store_batches %d, store_wal_bytes %d; want 0, 0", st.StoreBatches, st.StoreWALBytes)
	}
	solved(t, h, []byte(`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":100}]},`+
		`"topology":{"kind":"mesh","w":2,"h":2,"link_bw":1000}}}`))
	wal := settle()
	st := stats()
	if st.StoreBatches == 0 {
		t.Fatal("store_batches did not move")
	}
	if st.StoreWALBytes != uint64(len(wal)) {
		t.Fatalf("store_wal_bytes = %d, the WAL holds %d bytes", st.StoreWALBytes, len(wal))
	}
}
