package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported tail percentile must have
// beyond it: with fewer, one outlier decides the figure.
const minTail = 10

// dist summarises one latency sample set: the median and the tail
// percentile the sample size supports, with the sample count.
type dist struct {
	N     int
	P50   float64
	Tail  float64 // value at TailQ
	TailQ float64 // quantile actually reported as the tail (<= the one asked for)
}

// tailQuantile returns the quantile to report as the tail of n samples: the
// wanted one, or the highest below it that still has minTail samples
// beyond it under nearest-rank selection. It returns 0 when n is too small
// for any tail above the median.
func tailQuantile(n int, want float64) float64 {
	if n <= 2*minTail {
		return 0
	}
	// Nearest rank puts quantile q at index ceil(q*n)-1; minTail samples
	// beyond it means the index is at most n-1-minTail.
	if q := float64(n-minTail) / float64(n); q < want {
		return q
	}
	return want
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize sorts xs in place and returns its median and its tail at the
// wanted quantile, lowered to what the sample size supports.
func summarize(xs []float64, want float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs), P50: quantile(xs, 0.5), TailQ: tailQuantile(len(xs), want)}
	d.Tail = quantile(xs, d.TailQ)
	return d
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
