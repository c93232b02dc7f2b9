package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/nocmap/store"
)

// span is one timed interval of a traced request. All spans of one
// request share Req, the request's index in the workload stream. Times
// are nanoseconds since the run started.
type span struct {
	Req    int    `json:"req"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
}

// request records one traced request: the root span from its due time
// to its answer, the generator's wait (due to sent), the HTTP exchange
// (sent to answer) and, inside the exchange, the in-process replay of
// each layer call. The replayed calls ran after the load, so they are
// laid end to end from the moment the request was sent; the HTTP span's
// self time is then what the layer calls do not explain — transport,
// queueing, locks and the store.
func (t *tracer) request(phase time.Duration, s *shot, rp *replayed) {
	id := strconv.Itoa(s.Index)
	at := func(d time.Duration) int64 { return int64(phase + d) }
	t.spans = append(t.spans,
		span{Req: s.Index, ID: id, Name: "request", Start: at(s.Due), End: at(s.Done)},
		span{Req: s.Index, ID: id + ".wait", Parent: id, Name: "gen.wait", Start: at(s.Due), End: at(s.Sent)},
		span{Req: s.Index, ID: id + ".http", Parent: id, Name: "http", Start: at(s.Sent), End: at(s.Done)},
	)
	cur := at(s.Sent)
	child := func(name string, d time.Duration) {
		t.spans = append(t.spans, span{Req: s.Index, ID: id + "." + name, Parent: id + ".http",
			Name: name, Start: cur, End: cur + int64(d)})
		cur += int64(d)
	}
	child("server.decode", rp.decode)
	child("server.key", rp.keyDur)
	if !rp.hit {
		child("nocmap.solve."+rp.alg, rp.solve)
	}
	child("nocmap.encode", rp.encode)
}

// add records a standalone span (no parent).
func (t *tracer) add(req int, name string, start, end time.Duration) {
	t.spans = append(t.spans, span{Req: req, ID: fmt.Sprintf("%d.%s.%d", req, name, len(t.spans)),
		Name: name, Start: int64(start), End: int64(end)})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a span file written by tracer.write.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// selfTimes returns, per span name, every span's self time in
// microseconds: its duration minus the part of its interval that its
// children cover.
func selfTimes(spans []span) map[string][]float64 {
	kids := make(map[string][][2]int64)
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// covered is the length of [lo, hi) that the union of ivs overlaps.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i][0] < ivs[k][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// storeReplay applies each traced job's store writes to a scratch
// FileStore on real disk, in the batches the server's flusher forms
// when it keeps up: the queued record on submit, then the terminal
// record with its cache entry and the LRU and retention deletions it
// triggers. A cache hit writes only its terminal record.
type storeReplay struct {
	fs     *store.FileStore
	lru    []string // cache keys, least recently used first
	done   []string // retained job IDs, oldest first
	nextID int
	seq    uint64
}

func newStoreReplay(dir string) (*storeReplay, error) {
	fs, err := store.OpenConfig(dir, store.FileConfig{})
	if err != nil {
		return nil, err
	}
	return &storeReplay{fs: fs}, nil
}

// job applies one request's batches and returns each ApplyOps duration.
func (r *storeReplay) job(rp *replayed, result []byte) ([]time.Duration, error) {
	r.nextID++
	id := fmt.Sprintf("job-%d", r.nextID)
	var batches [][]store.Op
	if !rp.hit {
		spec, err := json.Marshal(rp.spec)
		if err != nil {
			return nil, err
		}
		batches = append(batches, []store.Op{{Kind: store.OpPutJob, Rec: &store.JobRecord{
			ID: id, Key: rp.key, Problem: rp.canon, Spec: spec, State: store.StateQueued, Minted: uint64(r.nextID)}}})
	}
	var fin []store.Op
	if !rp.hit {
		r.lru = append(r.lru, rp.key)
		if len(r.lru) > cacheSize {
			fin = append(fin, store.Op{Kind: store.OpDeleteCache, Key: r.lru[0]})
			r.lru = r.lru[1:]
		}
		fin = append(fin, store.Op{Kind: store.OpPutCache, Key: rp.key, Result: result})
	}
	r.seq++
	fin = append(fin, store.Op{Kind: store.OpPutJob, Rec: &store.JobRecord{
		ID: id, Key: rp.key, State: store.StateDone, CacheHit: rp.hit, Result: result,
		Seq: r.seq, Minted: uint64(r.nextID)}})
	r.done = append(r.done, id)
	if len(r.done) > retention {
		fin = append(fin, store.Op{Kind: store.OpDeleteJob, ID: r.done[0]})
		r.done = r.done[1:]
	}
	batches = append(batches, fin)
	var out []time.Duration
	for _, b := range batches {
		t := time.Now()
		if err := r.fs.ApplyOps(b); err != nil {
			return nil, fmt.Errorf("store replay: %w", err)
		}
		out = append(out, time.Since(t))
	}
	return out, nil
}

func (r *storeReplay) close() error { return r.fs.Close() }
