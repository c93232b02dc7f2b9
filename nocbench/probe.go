package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: over minutes its CPU speed
// drifts by up to ±30%, and the closed loop's throughput, which keeps
// both cores busy, moves with it (on eight hot-repeat runs a fixed CPU
// task's duration correlated -0.88 with peak_rps), as do the open
// loop's p50 and CPU time per job. So each run times the fixed task
// below before set-up, at the start of every round and after the
// servers stop, and reports p50_ms, peak_rps and cpu_ms_per_job scaled
// to a host on which the task takes probeRef. The raw figures go to
// standard error.

// probeRef is the task's duration on a calm 2-core x86-64 host, the one
// the first baseline was recorded on.
const probeRef = 10 * time.Millisecond

// probeReps is how many times each probe point runs the task; the
// median of all of a run's repetitions sets its speed.
const probeReps = 9

// probeTask is a fixed CPU- and memory-bound task that depends on
// nothing in the repository, so its duration tracks only the host.
func probeTask() time.Duration {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	xs := make([]int, 1<<16)
	start := time.Now()
	var sum [32]byte
	for r := 0; r < 4; r++ {
		sum = sha256.Sum256(append(buf[:len(buf)-32], sum[:]...))
	}
	for i := range xs {
		xs[i] = (i*2654435761 + int(sum[i%32])) % 1000003
	}
	sort.Ints(xs)
	m := make(map[int]int, 1<<14)
	for i := 0; i < 1<<16; i++ {
		m[(i*40503)&(1<<14-1)] += xs[i]
	}
	return time.Since(start)
}

// probe runs the task probeReps times on each of the generator's conns
// threads at once, so a core taken by another tenant of the host shows
// as it does to the servers, and returns each duration in ms. It
// collects garbage first, so no collection of the benchmark's own heap
// runs beside the task.
func probe() []float64 {
	runtime.GC()
	out := make([]float64, probeReps*conns)
	for r := 0; r < probeReps; r++ {
		var wg sync.WaitGroup
		for t := 0; t < conns; t++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				out[k] = ms(probeTask())
			}(r*conns + t)
		}
		wg.Wait()
	}
	return out
}

// slowdown is how much slower than the reference host the probes ran.
func slowdown(probes []float64) float64 {
	return median(append([]float64(nil), probes...)) / ms(probeRef)
}
