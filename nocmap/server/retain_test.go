package server

import (
	"testing"
)

// TestFinishedJobsDropProblem pins that a finished job keeps neither its
// parsed problem nor its canonical JSON: terminal records never carry
// them, so a retained status must not pin a topology. It covers a
// solved leader, an identical submission right behind it (coalesced or,
// if the solve already finished, a cache hit) and a cache hit.
func TestFinishedJobsDropProblem(t *testing.T) {
	s, err := New(Config{Pool: 1, QueueSize: 8, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := []byte(`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":100},{"from":"b","to":"c","bw":50}]},` +
		`"topology":{"kind":"mesh","w":2,"h":2,"link_bw":1000}},"options":{"algorithm":"pbb"}}`)
	submit := func() *job {
		t.Helper()
		p, canon, spec, serr := ParseSubmit(body)
		if serr != nil {
			t.Fatal(serr)
		}
		j, _, jerr := s.submit(p, canon, spec)
		if jerr != nil {
			t.Fatal(jerr)
		}
		return j
	}
	leader := submit()
	follower := submit()
	<-leader.done
	<-follower.done
	hit := submit()
	<-hit.done

	s.mu.Lock()
	defer s.mu.Unlock()
	for name, j := range map[string]*job{"leader": leader, "second": follower, "cache hit": hit} {
		if j.state != StateDone {
			t.Fatalf("%s: state %s, want done", name, j.state)
		}
		if j.problem != nil || j.canon != nil {
			t.Errorf("%s: finished job still holds problem=%v canon=%d bytes", name, j.problem != nil, len(j.canon))
		}
	}
	if !hit.cacheHit {
		t.Errorf("third submission was not a cache hit")
	}
}
