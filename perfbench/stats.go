package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// A tail figure with fewer samples beyond it does not repeat from run to
// run, so the picker refuses it instead of reporting noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (p in
// whole percent). It refuses a percentile with fewer than minBeyond
// samples above it.
func percentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile p%d out of range", p)
	}
	rank := (p*n + 99) / 100 // ceil(p/100 · n), in integers
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// samplesFor is the smallest sample count at which percentile accepts p.
func samplesFor(p int) int {
	n := minBeyond + 1
	for n-(p*n+99)/100 < minBeyond {
		n++
	}
	return n
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
