package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is how many client connections, and sender goroutines, the
// generator uses.
const conns = 2

// newClient returns an HTTP client that holds at most conns
// connections to any one server.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// shot is one request of a load phase. Times are offsets from the
// phase start.
type shot struct {
	Index int // request index in the workload stream
	Due   time.Duration
	Sent  time.Duration
	Done  time.Duration
	// Unsent marks a request the generator never sent because the phase
	// ran past its grace period.
	Unsent bool
	Status int
	Err    error
	Body   []byte
}

func (s *shot) latency() time.Duration { return s.Done - s.Due }

// post sends one submission and fills in the shot's outcome.
func post(c *http.Client, url string, body []byte, s *shot, start time.Time) {
	resp, err := c.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err == nil {
		s.Body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.Status = resp.StatusCode
	}
	s.Err = err
	s.Done = time.Since(start)
}

// openLoop offers bodies at a fixed rate on a precomputed schedule:
// request k is due at k/rate after the start, whatever the server is
// doing. The conns senders each take the next unsent request, sleep
// until it is due (or send at once when it is already late) and time it
// from its due time, so a stall counts against every request queued
// behind it. Requests not sent by the end of the schedule plus grace are
// marked Unsent rather than sent into an overloaded server forever.
// Sender w always talks to urls[w%len(urls)], so no more than conns
// connections are ever open.
func openLoop(c *http.Client, urls []string, first int, bodies [][]byte, rate float64, grace time.Duration) []shot {
	shots := make([]shot, len(bodies))
	period := time.Duration(float64(time.Second) / rate)
	span := time.Duration(len(bodies)) * period
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		url := urls[w%len(urls)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(bodies) {
					return
				}
				s := &shots[k]
				s.Index = first + k
				s.Due = time.Duration(k) * period
				if d := s.Due - time.Since(start); d > 0 {
					sleepFor(d)
				}
				s.Sent = time.Since(start)
				if s.Sent > span+grace {
					s.Unsent = true
					continue
				}
				post(c, url, bodies[k], s, start)
			}
		}()
	}
	wg.Wait()
	return shots
}

// warmup is the start of a run's first open-loop segment left out of
// its latency figures: the first requests on fresh connections and a
// cold server.
const warmup = time.Second

// settle is the start of every later open-loop segment left out: the
// server is warm, but may still be draining store work that the closed
// segment before it left behind.
const settle = 250 * time.Millisecond

// afterWarmup returns the shots due at or after skip; shots are in due
// order.
func afterWarmup(shots []shot, skip time.Duration) []shot {
	k := sort.Search(len(shots), func(i int) bool { return shots[i].Due >= skip })
	return shots[k:]
}

// sleepFor blocks the calling thread for d at the kernel timer's
// precision. time.Sleep waits on the runtime's network poller, which
// rounds a sub-millisecond wait up to a millisecond: a sender would then
// run up to 1 ms late on every request of a 1000 req/s schedule.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// closedLoop keeps conns requests in flight with no think time until
// d has passed or bodies run out. It returns the shots and the phase's
// elapsed time (start to the last completion).
func closedLoop(c *http.Client, url string, first int, bodies [][]byte, d time.Duration) ([]shot, time.Duration) {
	shots := make([]shot, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				k := int(next.Add(1) - 1)
				if k >= len(bodies) {
					return
				}
				s := &shots[k]
				s.Index = first + k
				s.Sent = time.Since(start)
				s.Due = s.Sent
				post(c, url, bodies[k], s, start)
			}
		}()
	}
	wg.Wait()
	// Every taken slot was sent: a sender checks the deadline before
	// taking one.
	n := min(int(next.Load()), len(bodies))
	return shots[:n], time.Since(start)
}

// roundSeconds is the length of one round of an untraced run: an
// open-loop segment, then a closed-loop segment. Interleaving the two
// phases spreads each over the whole run, so a stall of the shared host
// lands in a few rounds of both instead of in all of one phase, and the
// run reports medians over rounds.
const roundSeconds = 4

// round is one open-loop segment and the closed-loop segment after it.
type round struct {
	open, closed []shot
	elapsed      time.Duration // the closed segment's
	cpuTicks     int64         // the servers' CPU time over the open segment
	probes       []float64     // the host probe, timed before the round
}

// runRounds splits the bodies into n rounds (at least one) and runs them
// back to back against d. Request indices run on across rounds: open
// bodies from 0, closed bodies from len(openBodies).
func runRounds(c *http.Client, d *deployment, w *workload, openBodies, restBodies [][]byte, n int, restDur time.Duration) ([]round, error) {
	n = max(n, 1)
	rs := make([]round, n)
	for i := range rs {
		r := &rs[i]
		o0, o1 := i*len(openBodies)/n, (i+1)*len(openBodies)/n
		c0, c1 := i*len(restBodies)/n, (i+1)*len(restBodies)/n
		r.probes = probe()
		u0, err := d.usage()
		if err != nil {
			return nil, err
		}
		r.open = openLoop(c, []string{d.url()}, o0, openBodies[o0:o1], w.Rate, 2*time.Second)
		u1, err := d.usage()
		if err != nil {
			return nil, err
		}
		r.cpuTicks = u1.CPUTicks - u0.CPUTicks
		r.closed, r.elapsed = closedLoop(c, d.url(), len(openBodies)+c0, restBodies[c0:c1], restDur/time.Duration(n))
	}
	return rs, nil
}

// genStats describes how well the generator kept its schedule.
type genStats struct {
	LagP99     time.Duration // p99 of sent - due
	BacklogMax int           // peak number of due-but-unsent requests
	// Growing flags a run whose backlog was still climbing at the end of
	// the schedule: its latency percentiles describe a queue that never
	// drained, not the server at the offered rate.
	Growing bool
}

// scheduleStats measures the generator's lag and client-side backlog
// over an open-loop phase.
func scheduleStats(shots []shot) genStats {
	if len(shots) == 0 {
		return genStats{}
	}
	lags := make([]float64, 0, len(shots))
	sent := make([]time.Duration, 0, len(shots))
	for _, s := range shots {
		if s.Unsent {
			continue
		}
		lags = append(lags, float64(s.Sent-s.Due))
		sent = append(sent, s.Sent)
	}
	sort.Slice(sent, func(i, k int) bool { return sent[i] < sent[k] })
	// backlog when request k falls due: earlier requests not yet sent.
	backlog := make([]int, len(shots))
	j := 0
	for k, s := range shots {
		for j < len(sent) && sent[j] < s.Due {
			j++
		}
		backlog[k] = max(0, k-j)
	}
	g := genStats{LagP99: time.Duration(percentile(lags, 0.99))}
	half := 0
	for k, b := range backlog {
		if b > g.BacklogMax {
			g.BacklogMax = b
		}
		if k < len(backlog)/2 && b > half {
			half = b
		}
	}
	end := backlog[len(backlog)-1]
	g.Growing = end > half && end > len(shots)/100
	return g
}
