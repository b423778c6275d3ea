package main

import (
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Duration(n-i) * time.Millisecond // descending: tail must sort
	}
	return ds
}

// The tail is the highest percentile on the ladder that leaves at least
// ten samples beyond it.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		wantMs  int
	}{
		{n: 10000, wantPct: 99.9, wantMs: 9990}, // rank 9990, 10 beyond
		{n: 9999, wantPct: 99, wantMs: 9900},    // p99.9 rank 9990 leaves 9
		{n: 1000, wantPct: 99, wantMs: 990},
		{n: 999, wantPct: 95, wantMs: 950}, // p99 rank 990 leaves 9
		{n: 200, wantPct: 95, wantMs: 190},
		{n: 100, wantPct: 90, wantMs: 90},
		{n: 99, wantPct: 75, wantMs: 75}, // p90 rank 90 leaves 9
		{n: 40, wantPct: 75, wantMs: 30},
		{n: 20, wantPct: 50, wantMs: 10},
		{n: 5, wantPct: 50, wantMs: 3}, // no rung qualifies: the median
	}
	for _, c := range cases {
		pct, v := tail(durations(c.n))
		if pct != c.wantPct || v != time.Duration(c.wantMs)*time.Millisecond {
			t.Errorf("n=%d: tail = p%v %v, want p%v %dms", c.n, pct, v, c.wantPct, c.wantMs)
		}
		rank := percentileRank(pct, c.n)
		if c.n >= 20 && c.n-rank < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, pct, c.n-rank)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
