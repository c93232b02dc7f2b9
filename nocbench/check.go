package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/nocmap"
	"repro/nocmap/server"
)

// reply is the part of a /v1/solve answer the checker reads.
type reply struct {
	State     string          `json:"state"`
	Result    json.RawMessage `json:"result"`
	CacheHit  bool            `json:"cache_hit"`
	Coalesced bool            `json:"coalesced"`
}

// solved is the in-process answer for one canonical key.
type solved struct {
	res   *nocmap.Result
	bytes []byte // json.Marshal(res): what the server must have answered
}

// replayed is one request's in-process replay: the calls into each
// layer's public function on exactly that request's inputs, timed.
type replayed struct {
	canon   []byte
	spec    server.SolveSpec
	key     string
	decode  time.Duration // server.ParseSubmit
	keyDur  time.Duration // server.JobKey
	solve   time.Duration // nocmap.Solve; zero when the server did not solve it
	encode  time.Duration // json.Marshal(*nocmap.Result)
	events  int           // WithProgress events of the timed solve
	alg     string
	bodyLen int
	resLen  int
	hit     bool // the server answered from its cache or a coalesced peer
}

// checker verifies answers against in-process solves, memoized by
// canonical key so a repeated problem is solved once.
type checker struct {
	memo map[string]*solved
}

func newChecker() *checker { return &checker{memo: make(map[string]*solved)} }

// outcome classifies one shot's HTTP outcome: "" for a 2xx with state
// done and a result, otherwise why it failed.
func outcome(s *shot) (reply, string) {
	var r reply
	switch {
	case s.Unsent:
		return r, "never sent"
	case s.Err != nil:
		return r, "transport: " + s.Err.Error()
	case s.Status < 200 || s.Status > 299:
		return r, fmt.Sprintf("HTTP %d: %s", s.Status, bytes.TrimSpace(s.Body))
	}
	if err := json.Unmarshal(s.Body, &r); err != nil {
		return r, "undecodable answer: " + err.Error()
	}
	if r.State != server.StateDone || len(r.Result) == 0 {
		return r, fmt.Sprintf("state %q with %d result bytes", r.State, len(r.Result))
	}
	return r, ""
}

// check replays one answered request in process and compares the
// result bytes. timeAll re-solves even a memoized key when the server
// solved this request, so its solve span is measured.
func (c *checker) check(body []byte, r reply, timeAll bool) (*replayed, error) {
	rp := &replayed{bodyLen: len(body), hit: r.CacheHit || r.Coalesced}
	t0 := time.Now()
	p, canon, spec, serr := server.ParseSubmit(body)
	rp.decode = time.Since(t0)
	if serr != nil {
		return nil, fmt.Errorf("decoding own request: %v", serr)
	}
	spec = server.ProfileRepro.Apply(spec)
	t1 := time.Now()
	key := server.JobKey(canon, spec)
	rp.keyDur = time.Since(t1)
	rp.canon, rp.spec, rp.key, rp.alg = canon, spec, key, spec.Algorithm

	sv, ok := c.memo[key]
	if !ok || (timeAll && !rp.hit) {
		opts := append(spec.Options(), nocmap.WithProgress(func(nocmap.Event) { rp.events++ }))
		t2 := time.Now()
		res, err := nocmap.Solve(context.Background(), p, opts...)
		rp.solve = time.Since(t2)
		if err != nil {
			return nil, fmt.Errorf("in-process solve: %w", err)
		}
		if !ok {
			b, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			sv = &solved{res: res, bytes: b}
			c.memo[key] = sv
		}
	}
	if rp.hit {
		rp.solve, rp.events = 0, 0
	}
	t3 := time.Now()
	if _, err := json.Marshal(sv.res); err != nil {
		return nil, err
	}
	rp.encode = time.Since(t3)
	rp.resLen = len(sv.bytes)
	if !bytes.Equal(sv.bytes, r.Result) {
		return rp, fmt.Errorf("result differs from in-process solve (%d vs %d bytes)", len(r.Result), len(sv.bytes))
	}
	return rp, nil
}

// sample picks up to n shot positions out of total, seeded.
func sample(seed int64, lane, total, n int) []int {
	rng := rand.New(rand.NewSource(mix(seed, total, lane)))
	if n >= total {
		return rng.Perm(total)
	}
	return rng.Perm(total)[:n]
}
