package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder the tail is chosen from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail picks the highest percentile of ds that still has at least ten
// samples beyond it, and returns that percentile and its value. The
// p-th percentile is the sample of 1-based rank ceil(p/100 * n) in
// ascending order; n - rank samples lie beyond it. With fewer than
// twenty samples no rung qualifies and the median is returned as p50.
func tail(ds []time.Duration) (pct float64, v time.Duration) {
	if len(ds) == 0 {
		return 50, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	for _, p := range tailPercentiles {
		rank := percentileRank(p, n)
		if n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 50, s[percentileRank(50, n)-1]
}

// percentileRank is the 1-based rank of the p-th percentile among n
// ascending samples (nearest-rank definition).
func percentileRank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact product up a rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// p50 is the nearest-rank median of ds.
func p50(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[percentileRank(50, len(s))-1]
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
