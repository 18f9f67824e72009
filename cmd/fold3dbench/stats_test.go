package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the method a benchmark spread is judged
// by, including its extrapolation on tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2.5, 9, 4, 7.5, 1, 6, 3}, [3]float64{2.5, 4, 7.5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; !near(got[:], c.want[:]) {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

// TestTailPercentileNeedsTenBeyond checks the reporting rule: a percentile
// is reported only with at least ten samples beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the function must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{99, 0.90, false, 0},
		{100, 0.90, true, 90},
		{150, 0.90, true, 135},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{10, 0.50, false, 0},
		{20, 0.50, true, 10},
	}
	for _, c := range cases {
		v, ok := tailPercentile(seq(c.n), c.p)
		if ok != c.ok || v != c.want {
			t.Errorf("tailPercentile(n=%d, p=%g) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	s := summarize(seq(99))
	if s.P90 != nil || s.P99 != nil || s.N != 99 || s.Median != 50 {
		t.Errorf("summarize(99 samples) = %+v, want median 50 and no tail", s)
	}
	s = summarize(seq(1000))
	if s.P90 == nil || *s.P90 != 900 || s.P99 == nil || *s.P99 != 990 {
		t.Errorf("summarize(1000 samples) tails = %v, %v; want 900, 990", s.P90, s.P99)
	}
}

func near(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}
