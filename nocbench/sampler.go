package main

import (
	"net/http"
	"time"
)

// sampled is what the traced run's /v1/stats sampler saw over the traced
// half of the open-loop phase, summed over backends.
type sampled struct {
	start, end serverStats
	queueMax   int
	pendingMax int
	lagMax     uint64
}

// sampler polls every backend's /v1/stats while the traced half of the
// open-loop phase runs. Its polling is part of what the tracing
// overhead metric measures.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}
	out   sampled
	err   error
}

// sampleEvery is the /v1/stats polling period.
const sampleEvery = 20 * time.Millisecond

// startSampler begins polling after the given delay.
func startSampler(c *http.Client, d *deployment, after time.Duration) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		select {
		case <-time.After(after):
		case <-s.stopc:
			return
		}
		poll := func() (serverStats, bool) {
			ss, err := d.backendStats(c)
			if err != nil {
				s.err = err
				return serverStats{}, false
			}
			t := sumStats(ss)
			s.out.queueMax = max(s.out.queueMax, t.QueueLen)
			s.out.pendingMax = max(s.out.pendingMax, t.StorePending)
			s.out.lagMax = max(s.out.lagMax, t.ReplicationLag)
			return t, true
		}
		var ok bool
		if s.out.start, ok = poll(); !ok {
			return
		}
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if _, ok := poll(); !ok {
					return
				}
			case <-s.stopc:
				s.out.end, _ = poll()
				return
			}
		}
	}()
	return s
}

// stop ends the sampling and returns what it saw.
func (s *sampler) stop() (*sampled, error) {
	close(s.stopc)
	<-s.done
	if s.err != nil {
		return nil, s.err
	}
	return &s.out, nil
}
