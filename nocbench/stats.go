package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (0 for none).
// It sorts xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(rank, len(xs)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// windowedP99 is the median of the p99s of consecutive windows of xs
// (in arrival order), each holding at least 1000 samples so ten lie
// beyond its p99. One stall then moves one window, not the result. With
// too few samples for two windows it is the plain p99.
func windowedP99(xs []float64) (float64, int) {
	k := min(len(xs)/1000, 7)
	if k < 2 {
		return percentile(append([]float64(nil), xs...), 0.99), 1
	}
	p99s := make([]float64, k)
	for i := range p99s {
		w := append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...)
		p99s[i] = percentile(w, 0.99)
	}
	return median(p99s), k
}

// windowRates splits completions into consecutive windows of about half
// a second's worth each and returns the rate each window ran at: the
// plain rate when there are too few for two per window. done holds
// completion times in seconds, sorted.
func windowRates(done []float64, seconds float64) []float64 {
	if seconds <= 0 {
		return nil
	}
	k := int(2 * seconds)
	if k < 1 || len(done) < 2*k {
		return []float64{float64(len(done)) / seconds}
	}
	rates := make([]float64, k)
	prev := 0.0
	for i := range rates {
		last := done[(i+1)*len(done)/k-1]
		n := (i+1)*len(done)/k - i*len(done)/k
		rates[i] = float64(n) / (last - prev)
		prev = last
	}
	return rates
}
