package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read from fewer samples is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples and
// whether at least minBeyond samples lie beyond it. A refused percentile
// must not be reported.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], n-1-rank >= minBeyond
}

// layerPercentile is percentile for per-layer metrics, which must always
// carry a value: a refused percentile reads -1.
func layerPercentile(samples []float64, q float64) float64 {
	if v, ok := percentile(samples, q); ok {
		return v
	}
	return -1
}

// typical is the value a latency metric reports: the median when the
// percentile rule allows it, otherwise the mean. The second result names
// which one it is, for the diagnostics line.
func typical(samples []float64) (float64, string) {
	if v, ok := percentile(samples, 0.5); ok {
		return v, "p50"
	}
	return mean(samples), "mean"
}

func mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
