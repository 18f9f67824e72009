package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: a tail read from fewer samples is one outlier.
const minBeyond = 10

// summary is the distribution of one timing: the median with its
// quartiles and the sample count, plus the tail percentiles that have at
// least minBeyond samples beyond them (nil otherwise).
type summary struct {
	N      int      `json:"n"`
	Median float64  `json:"median"`
	Q1     float64  `json:"q1"`
	Q3     float64  `json:"q3"`
	P90    *float64 `json:"p90,omitempty"`
	P99    *float64 `json:"p99,omitempty"`
}

// summarize describes xs; it does not modify it.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = quartiles(xs)
	if v, ok := tailPercentile(xs, 0.90); ok {
		s.P90 = &v
	}
	if v, ok := tailPercentile(xs, 0.99); ok {
		s.P99 = &v
	}
	return s
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs into four groups with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the method
// the spread of a benchmark metric is judged by. The middle one is the
// median. One sample is its own quartiles; xs must not be empty.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], median(d), q[2]
}

// median returns the middle of xs, the mean of the two middle samples when
// the count is even; xs must not be empty.
func median(xs []float64) float64 {
	d := sorted(xs)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-percentile of xs and whether at
// least minBeyond samples lie beyond it; a percentile without them is not
// reported.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	k := int(math.Ceil(p * float64(n)))
	if k < 1 || n-k < minBeyond {
		return 0, false
	}
	return sorted(xs)[k-1], true
}

// spread is the interquartile distance of xs as a share of its median, the
// run-to-run noise a bound is compared against. Fewer than two samples
// have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
