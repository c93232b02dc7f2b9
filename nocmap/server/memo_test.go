package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/nocmap/store"
)

// memoSentinel marks a memo entry so a test can tell which path
// admitted a job: Workers never reaches a cache hit's key, status or
// record, so a job carrying it was admitted from the memo.
const memoSentinel = 977

func (m *submitMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.known)
}

// postTo sends body to path through h.
func postTo(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// decodeStatus decodes a JobStatus response and returns it with its
// bytes, the minted ID blanked.
func decodeStatus(t *testing.T, raw []byte) (JobStatus, []byte) {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding status %s: %v", raw, err)
	}
	return st, bytes.Replace(raw, []byte(`"id":"`+st.ID+`"`), []byte(`"id":""`), 1)
}

// markMemo tags the memo entry of body with memoSentinel; it fails the
// test when the memo does not know body.
func markMemo(t *testing.T, s *Server, body []byte) memoEntry {
	t.Helper()
	sum := sha256.Sum256(body)
	e, ok := s.memo.get(sum)
	if !ok {
		t.Fatal("the memo does not know a body whose parse ended in a cache hit")
	}
	marked := e
	marked.spec.Workers = memoSentinel
	s.memo.put(sum, marked)
	return e
}

// admittedFromMemo reports whether the job with id carries memoSentinel.
func admittedFromMemo(s *Server, id string) bool {
	j, ok := s.get(id)
	return ok && j.spec.Workers == memoSentinel
}

// tinyBody is a 3-core submission on a 2x2 mesh, distinct per name.
func tinyBody(name, options string) []byte {
	return []byte(`{"problem":{"app":{"name":"` + name + `","edges":[{"from":"a","to":"b","bw":100},` +
		`{"from":"b","to":"c","bw":50}]},"topology":{"kind":"mesh","w":2,"h":2,"link_bw":1000}},` +
		`"options":{` + options + `}}`)
}

// TestMemoMatchesParsePath sends every body of the canonical golden
// corpus (the benchmark's workload shapes among them) to POST /v1/solve
// and POST /v1/jobs under both profiles. The first cache hit goes
// through ParseSubmit and fills the memo; the later hits are admitted
// from the memo. Every hit answers the same JobStatus bytes, ID aside,
// under the key JobKey(ParseSubmit(body)) takes under the profile.
func TestMemoMatchesParsePath(t *testing.T) {
	raw, err := os.ReadFile("testdata/canonical_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name string `json:"name"`
		Body string `json:"body"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	for _, profile := range []Profile{ProfileRepro, ProfileFast} {
		s, err := New(Config{Pool: 1, QueueSize: 8, CacheSize: 64, Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for _, c := range cases {
			body := []byte(c.Body)
			_, canon, spec, serr := ParseSubmit(body)
			if serr != nil {
				t.Fatalf("%s/%s: %v", profile, c.Name, serr)
			}
			spec = profile.Apply(spec)
			wantKey := JobKey(canon, spec)

			first := postTo(h, "/v1/solve", body)
			solved, _ := decodeStatus(t, first.Body.Bytes())
			if first.Code != http.StatusOK || solved.Key != wantKey {
				t.Fatalf("%s/%s: solve answered %d with key %s, want 200 and %s",
					profile, c.Name, first.Code, solved.Key, wantKey)
			}
			if solved.State != StateDone {
				// Only clean results are cached, so nothing is remembered.
				if _, ok := s.memo.get(sha256.Sum256(body)); ok {
					t.Fatalf("%s/%s: a %s solve filled the memo", profile, c.Name, solved.State)
				}
				t.Logf("%s/%s: solve ended %s; no cache hit to remember", profile, c.Name, solved.State)
				continue
			}
			parsed := postTo(h, "/v1/solve", body)
			hit, want := decodeStatus(t, parsed.Body.Bytes())
			if !hit.CacheHit || hit.Key != wantKey || !bytes.Equal(hit.Result, solved.Result) {
				t.Fatalf("%s/%s: second submission %s, want a cache hit on the solved result", profile, c.Name, parsed.Body)
			}
			if e := markMemo(t, s, body); e.key != wantKey || e.spec != spec {
				t.Fatalf("%s/%s: memo holds (%s, %+v), want (%s, %+v)", profile, c.Name, e.key, e.spec, wantKey, spec)
			}
			for i := 0; i < 2; i++ {
				rec := postTo(h, "/v1/solve", body)
				st, got := decodeStatus(t, rec.Body.Bytes())
				if rec.Code != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("%s/%s: memo hit answered %d %s\nwant 200 %s", profile, c.Name, rec.Code, got, want)
				}
				if !admittedFromMemo(s, st.ID) {
					t.Fatalf("%s/%s: repeat %d was not admitted from the memo", profile, c.Name, i)
				}
			}
			async := postTo(h, "/v1/jobs", body)
			st, got := decodeStatus(t, async.Body.Bytes())
			if async.Code != http.StatusOK || !bytes.Equal(got, want) || !admittedFromMemo(s, st.ID) {
				t.Fatalf("%s/%s: POST /v1/jobs memo hit answered %d %s\nwant 200 %s from the memo",
					profile, c.Name, async.Code, got, want)
			}
		}
		s.Close()
	}
}

// TestMemoSkipsRejectedBodies pins that a body the front door rejects,
// or whose job fails, answers the same status and bytes every time and
// never enters the memo.
func TestMemoSkipsRejectedBodies(t *testing.T) {
	s, err := New(Config{Pool: 1, QueueSize: 8, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	infeasible := []byte(`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1000}]},` +
		`"topology":{"kind":"mesh","w":2,"h":2,"link_bw":100}}}`)
	for _, body := range [][]byte{
		[]byte(`{"problem": {`),
		[]byte(`{}`),
		[]byte(``),
		tinyBody("bad-algorithm", `"algorithm":"anneal"`),
		tinyBody("bad-split", `"split":"some-paths"`),
		[]byte(`{"problem":{"app":{"cores":["a"]},"topology":{"kind":"mesh","w":0,"h":2,"link_bw":10}}}`),
		infeasible,
	} {
		for _, path := range []string{"/v1/solve", "/v1/jobs"} {
			first := postTo(h, path, body)
			second := postTo(h, path, body)
			a, b := first.Body.Bytes(), second.Body.Bytes()
			if first.Code == http.StatusAccepted {
				continue // a queued job; its failure shows on /v1/solve
			}
			if first.Code == http.StatusOK {
				_, a = decodeStatus(t, a)
				_, b = decodeStatus(t, b)
			}
			if first.Code != second.Code || !bytes.Equal(a, b) {
				t.Errorf("%s %q answered %d %s, then %d %s", path, body, first.Code, a, second.Code, b)
			}
		}
	}
	waitJobsFinished(t, s)
	if n := s.memo.len(); n != 0 {
		t.Fatalf("memo holds %d entries after rejected and failed bodies only", n)
	}
}

// waitJobsFinished waits until no job of s is queued or running.
func waitJobsFinished(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.Stats(); st.QueueLen == 0 && st.Running == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("jobs still queued or running after 10s")
}

// TestMemoFallsBackOnEvictedKey alternates two bodies over a one-entry
// result cache: each evicts the other, so every memo hit finds its key
// gone and must solve through the parse path.
func TestMemoFallsBackOnEvictedKey(t *testing.T) {
	s, err := New(Config{Pool: 1, QueueSize: 8, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	bodies := [][]byte{tinyBody("evict-a", ""), tinyBody("evict-b", "")}
	results := make([]json.RawMessage, len(bodies))
	for i, body := range bodies {
		solved, _ := decodeStatus(t, postTo(h, "/v1/solve", body).Body.Bytes())
		results[i] = solved.Result
		if hit, _ := decodeStatus(t, postTo(h, "/v1/solve", body).Body.Bytes()); !hit.CacheHit {
			t.Fatalf("body %d: immediate resubmission was not a cache hit", i)
		}
		markMemo(t, s, body)
	}
	for round := 0; round < 6; round++ {
		i := round % 2
		before := s.Stats().Solved
		st, _ := decodeStatus(t, postTo(h, "/v1/solve", bodies[i]).Body.Bytes())
		if st.State != StateDone || st.CacheHit || !bytes.Equal(st.Result, results[i]) {
			t.Fatalf("round %d: evicted body answered state=%s cache_hit=%v, want a fresh solve of the same result",
				round, st.State, st.CacheHit)
		}
		if admittedFromMemo(s, st.ID) {
			t.Fatalf("round %d: a job whose key was evicted was admitted from the memo", round)
		}
		if after := s.Stats().Solved; after != before+1 {
			t.Fatalf("round %d: solved %d -> %d, want one solve", round, before, after)
		}
	}
}

// TestMemoSkipsEmptyCacheEntry pins that a cache entry without a
// result, which a reconcile body may carry, is no hit for the memo
// either: the memo-known body solves through the parse path instead of
// queueing a job that has no problem.
func TestMemoSkipsEmptyCacheEntry(t *testing.T) {
	s, err := New(Config{Pool: 1, QueueSize: 8, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := tinyBody("empty-entry", "")
	postTo(h, "/v1/solve", body)
	hit, _ := decodeStatus(t, postTo(h, "/v1/solve", body).Body.Bytes())
	markMemo(t, s, body)
	postTo(h, "/v1/solve", tinyBody("empty-entry-evictor", ""))
	if rec := postTo(h, "/v1/reconcile", []byte(`{"ops":[{"op":"cache","key":"`+hit.Key+`"}]}`)); rec.Code != http.StatusOK {
		t.Fatalf("reconcile answered %d %s", rec.Code, rec.Body)
	}
	st, _ := decodeStatus(t, postTo(h, "/v1/solve", body).Body.Bytes())
	if st.State != StateDone || st.CacheHit || !bytes.Equal(st.Result, hit.Result) || admittedFromMemo(s, st.ID) {
		t.Fatalf("answered state=%s cache_hit=%v from the memo=%v, want a parse-path solve of the same result",
			st.State, st.CacheHit, admittedFromMemo(s, st.ID))
	}
}

// TestMemoAdmissionChecks pins that a memo-known body passes the same
// checks as a parsed one: 429 while the store write-behind is at
// StoreQueue, and 503 once the server is closed.
func TestMemoAdmissionChecks(t *testing.T) {
	fault := store.NewFaultStore(store.NewMemStore())
	s, err := New(Config{Pool: 1, QueueSize: 8, CacheSize: 8, Store: fault, StoreQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	drained := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for s.Stats().StorePending != 0 {
			if time.Now().After(deadline) {
				t.Fatal("the store write-behind did not drain")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	known := tinyBody("admission-known", "")
	for i := 0; i < 2; i++ {
		if rec := postTo(h, "/v1/solve", known); rec.Code != http.StatusOK {
			t.Fatalf("priming submission %d answered %d %s", i, rec.Code, rec.Body)
		}
		drained()
	}
	markMemo(t, s, known)

	fault.SetLatency(300 * time.Millisecond)
	if rec := postTo(h, "/v1/jobs", tinyBody("admission-fill", "")); rec.Code != http.StatusAccepted {
		t.Fatalf("filling submission answered %d %s", rec.Code, rec.Body)
	}
	for _, path := range []string{"/v1/solve", "/v1/jobs"} {
		rec := postTo(h, path, known)
		if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), `"code":"queue_full"`) ||
			!strings.Contains(rec.Body.String(), "store write-behind full (") {
			t.Fatalf("%s: memo-known body answered %d %s with the write-behind full, want the store 429",
				path, rec.Code, rec.Body)
		}
	}
	fault.SetLatency(0)
	drained()
	rec := postTo(h, "/v1/solve", known)
	if st, _ := decodeStatus(t, rec.Body.Bytes()); rec.Code != http.StatusOK || !admittedFromMemo(s, st.ID) {
		t.Fatalf("after the drain the memo-known body answered %d %s, want a memo hit", rec.Code, rec.Body)
	}

	s.Close()
	parsed := postTo(h, "/v1/solve", tinyBody("admission-unknown", ""))
	for _, path := range []string{"/v1/solve", "/v1/jobs"} {
		rec := postTo(h, path, known)
		if rec.Code != http.StatusServiceUnavailable || !bytes.Equal(rec.Body.Bytes(), parsed.Body.Bytes()) {
			t.Fatalf("%s: memo-known body after Close answered %d %s, want the parse path's %d %s",
				path, rec.Code, rec.Body, parsed.Code, parsed.Body)
		}
	}
}

// TestMemoHoldsReplicatedAck pins that a durability=replicated body
// admitted from the memo still holds its ack until the follower holds
// the job's record.
func TestMemoHoldsReplicatedAck(t *testing.T) {
	follower, err := New(Config{Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: store.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()
	primary, err := New(Config{Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-",
		Store: store.NewMemStore(), ReplicaTargets: []string{fts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	h := primary.Handler()
	body := tinyBody("memo-durable", `"durability":"replicated"`)
	for i := 0; i < 2; i++ {
		if rec := postTo(h, "/v1/solve", body); rec.Code != http.StatusOK {
			t.Fatalf("priming submission %d answered %d %s", i, rec.Code, rec.Body)
		}
	}
	markMemo(t, primary, body)
	for _, c := range []struct {
		path string
		code int
	}{{"/v1/solve", http.StatusOK}, {"/v1/jobs", http.StatusOK}} {
		rec := postTo(h, c.path, body)
		st, _ := decodeStatus(t, rec.Body.Bytes())
		if rec.Code != c.code || !st.CacheHit || !admittedFromMemo(primary, st.ID) {
			t.Fatalf("%s: answered %d %s, want %d and a memo cache hit", c.path, rec.Code, rec.Body, c.code)
		}
		if st.Durability != DurabilityReplicated || rec.Header().Get("X-Nocmap-Durability") != DurabilityReplicated {
			t.Fatalf("%s: durability %q (header %q), want %q", c.path, st.Durability,
				rec.Header().Get("X-Nocmap-Durability"), DurabilityReplicated)
		}
		follower.mu.Lock()
		rep, ok := follower.replicas[st.ID]
		follower.mu.Unlock()
		if !ok || rep.State != StateDone {
			t.Fatalf("%s: acked replicated, but the follower holds %+v (present %v)", c.path, rep, ok)
		}
	}
}

// TestMemoConcurrentSubmitEvict races submissions of more bodies than
// the result cache (and the memo bound) holds from several goroutines:
// every answer must carry its body's key and result, whichever path
// admitted it. Run it under -race (make race).
func TestMemoConcurrentSubmitEvict(t *testing.T) {
	const cacheSize = 2
	s, err := New(Config{Pool: 2, QueueSize: 64, CacheSize: cacheSize, Store: store.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	bodies := make([][]byte, 2*cacheSize+2)
	keys := make([]string, len(bodies))
	for i := range bodies {
		bodies[i] = tinyBody(fmt.Sprintf("race-%d", i), "")
		_, canon, spec, serr := ParseSubmit(bodies[i])
		if serr != nil {
			t.Fatal(serr)
		}
		keys[i] = JobKey(canon, spec)
	}
	var mu sync.Mutex
	results := make(map[int]json.RawMessage)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 40; n++ {
				i := rng.Intn(len(bodies))
				if n%3 == 0 {
					i = g % 2 // keep a few bodies hot enough to hit
				}
				path := "/v1/solve"
				if n%5 == 0 {
					path = "/v1/jobs"
				}
				rec := postTo(h, path, bodies[i])
				var st JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Key != keys[i] {
					t.Errorf("body %d via %s: answered %d %s, want key %s", i, path, rec.Code, rec.Body, keys[i])
					return
				}
				if st.State != StateDone {
					continue // an async submission still solving
				}
				mu.Lock()
				if want, ok := results[i]; !ok {
					results[i] = st.Result
				} else if !bytes.Equal(st.Result, want) {
					t.Errorf("body %d: result drifted between submissions", i)
				}
				mu.Unlock()
				if m := s.memo.len(); m > 2*cacheSize {
					t.Errorf("memo holds %d entries, bound %d", m, 2*cacheSize)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.CacheHits == 0 {
		t.Fatalf("no cache hits in %d submissions: the test exercised nothing", st.Submitted)
	}
}

// TestMemoBound pins the memo's size bound and that a server without a
// result cache keeps no memo.
func TestMemoBound(t *testing.T) {
	if m := newSubmitMemo(0); m != nil {
		t.Fatal("a memo for a disabled cache")
	}
	s, err := New(Config{Pool: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.memo != nil {
		t.Fatal("a server with caching disabled keeps a memo")
	}
	m := newSubmitMemo(2)
	for i := 0; i < 4; i++ {
		m.put(sha256.Sum256([]byte{byte(i)}), memoEntry{key: fmt.Sprint(i)})
	}
	m.put(sha256.Sum256([]byte{3}), memoEntry{key: "3 again"}) // a known body does not clear
	if m.len() != 4 {
		t.Fatalf("memo holds %d entries, want 4", m.len())
	}
	m.put(sha256.Sum256([]byte{4}), memoEntry{key: "4"})
	if m.len() != 1 {
		t.Fatalf("memo holds %d entries after overflowing 2×CacheSize, want 1", m.len())
	}
}
