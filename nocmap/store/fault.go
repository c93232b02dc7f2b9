package store

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error a FaultStore returns for an injected fault;
// match with errors.Is to distinguish deliberate chaos from real I/O
// failures in assertions.
var ErrInjected = errors.New("store: injected fault")

// FaultStore wraps a JobStore and injects disk-style faults into its
// mutating operations — the test harness the chaos suite uses to prove
// the server keeps serving (with Stats.StoreErrors counting the
// degradation) when fsyncs fail, writes tear or the disk is slow.
//
// Three independent fault dials, all safe to adjust while the store is
// in use:
//
//   - FailEvery(n): every n-th mutating op returns ErrInjected. With
//     torn writes off, the op does not reach the inner store (a clean
//     fsync failure: nothing durable happened). With SetTorn(true), the
//     op is applied first and the error returned anyway — a write that
//     reached the disk but whose acknowledgment was lost, the case
//     replay idempotency must absorb.
//   - FailNext(n): the next n mutating ops fail, then the store heals.
//   - SetLatency(d): every mutating op sleeps d first (a slow disk).
//
// Load and Close always pass through: boot must be able to read what
// the faults left behind.
type FaultStore struct {
	inner JobStore

	mu        sync.Mutex
	ops       uint64        // mutating ops seen
	failEvery uint64        // every n-th op fails (0: off)
	failNext  int           // the next n ops fail
	latency   time.Duration // pre-op delay
	torn      bool          // apply before failing
}

// NewFaultStore wraps inner with every fault dial off.
func NewFaultStore(inner JobStore) *FaultStore {
	return &FaultStore{inner: inner}
}

// FailEvery makes every n-th mutating operation fail (0 disables).
func (f *FaultStore) FailEvery(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 0 {
		n = 0
	}
	f.failEvery = uint64(n)
}

// FailNext makes the next n mutating operations fail.
func (f *FaultStore) FailNext(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNext = n
}

// SetLatency delays every mutating operation by d.
func (f *FaultStore) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// SetTorn switches injected failures to torn-write mode: the inner op
// is applied before the error is returned.
func (f *FaultStore) SetTorn(torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.torn = torn
}

// ApplyOps implements JobStore. The whole batch counts as ONE mutating
// op against the fault dials — faults are modeled at fsync
// granularity, which is exactly what a batched commit is. A non-torn
// fault fails the batch before it reaches the inner store; a torn fault
// applies it first and loses the acknowledgment.
func (f *FaultStore) ApplyOps(ops []Op) error {
	f.mu.Lock()
	delay := f.latency
	f.ops++
	fail := false
	if f.failNext > 0 {
		f.failNext--
		fail = true
	} else if f.failEvery > 0 && f.ops%f.failEvery == 0 {
		fail = true
	}
	torn := f.torn
	f.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if fail && !torn {
		return ErrInjected
	}
	err := f.inner.ApplyOps(ops)
	if fail {
		if err != nil {
			return fmt.Errorf("%w (and inner: %v)", ErrInjected, err)
		}
		return ErrInjected
	}
	return err
}

// Load implements JobStore; never injected — boot must see the truth.
func (f *FaultStore) Load() (*Snapshot, error) { return f.inner.Load() }

// Unwrap returns the wrapped store, so callers can walk a wrapper
// chain down to the concrete backing store.
func (f *FaultStore) Unwrap() JobStore { return f.inner }

// Close implements JobStore; never injected.
func (f *FaultStore) Close() error { return f.inner.Close() }

// ParseFaultSpec configures a FaultStore from a comma-separated spec —
// the cmd/nocmapd -store-fault flag format the chaos harness drives real
// processes with:
//
//	latency=1ms,fail-every=37,torn=1
//
// Keys: latency (Go duration), fail-every (int), fail-next (int),
// torn (0/1). Unknown keys are an error.
func ParseFaultSpec(f *FaultStore, spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("store: fault spec %q: want key=value", part)
		}
		switch key {
		case "latency":
			d, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("store: fault latency %q: %w", val, err)
			}
			f.SetLatency(d)
		case "fail-every":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("store: fault fail-every %q: %w", val, err)
			}
			f.FailEvery(n)
		case "fail-next":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("store: fault fail-next %q: %w", val, err)
			}
			f.FailNext(n)
		case "torn":
			f.SetTorn(val == "1" || val == "true")
		default:
			return fmt.Errorf("store: unknown fault spec key %q", key)
		}
	}
	return nil
}
