package main

import (
	"strings"
	"testing"
)

// runsOf scales a noise pattern of ten runs to the given median.
func runsOf(median, noise float64) []float64 {
	pattern := []float64{-1, 1, -0.5, 0.5, 0, -0.25, 0.25, -0.75, 0.75, 0}
	out := make([]float64, len(pattern))
	for i, p := range pattern {
		out[i] = median * (1 + noise*p)
	}
	return out
}

// TestJudgeAppliesBounds checks the verdict of one metric comparison
// against its bound, in both directions of improvement.
func TestJudgeAppliesBounds(t *testing.T) {
	cases := []struct {
		name         string
		base, change []float64
		better       string
		want         string
	}{
		{"same", runsOf(100, 0.02), runsOf(101, 0.02), "lower", verdictOK},
		{"within bound", runsOf(100, 0.02), runsOf(108, 0.02), "lower", verdictOK},
		{"slower", runsOf(100, 0.02), runsOf(115, 0.02), "lower", verdictRegression},
		{"fewer jobs", runsOf(100, 0.02), runsOf(85, 0.02), "higher", verdictRegression},
		{"more jobs", runsOf(100, 0.02), runsOf(115, 0.02), "higher", verdictBetter},
		{"noisy", runsOf(100, 0.5), runsOf(115, 0.5), "lower", verdictUnresolved},
		{"noisy but every run faster", runsOf(100, 0.3), runsOf(50, 0.3), "lower", verdictBetter},
	}
	for _, c := range cases {
		if got := judge(c.base, c.change, c.better, 0.10); got.verdict != c.want {
			t.Errorf("%s: verdict %s (worse %+.3f, spread %.3f), want %s", c.name, got.verdict, got.worse, got.spread, c.want)
		}
	}
}

// TestCompareFlagsRegressions checks the per-workload rows and the
// regression result of -compare, including a rise in failed operations.
func TestCompareFlagsRegressions(t *testing.T) {
	s := &spec{
		Workloads: []specLoad{{Name: "w1"}, {Name: "w2"}},
		EndToEnd:  []specBound{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	runs := func(workload string, values []float64, failed int) []*report {
		var out []*report
		for _, v := range values {
			out = append(out, &report{Workload: workload, Failed: failed, Metrics: map[string]float64{"latency_p50_ms": v}})
		}
		// A traced run never takes part in the end-to-end comparison.
		out = append(out, &report{Workload: workload, Trace: 1, Metrics: map[string]float64{"latency_p50_ms": 1e9}})
		return out
	}
	base := append(runs("w1", runsOf(100, 0.02), 0), runs("w2", runsOf(100, 0.02), 0)...)

	var sb strings.Builder
	if compare(&sb, s, base, append(runs("w1", runsOf(102, 0.02), 0), runs("w2", runsOf(98, 0.02), 0)...)) {
		t.Errorf("unchanged runs reported as a regression:\n%s", sb.String())
	}
	if rows := strings.Count(sb.String(), "\n"); rows != 3 {
		t.Errorf("want a header and one row per workload, got:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, s, base, append(runs("w1", runsOf(100, 0.02), 0), runs("w2", runsOf(130, 0.02), 0)...)) ||
		!strings.Contains(sb.String(), verdictRegression) {
		t.Errorf("a 30%% slowdown on w2 was not flagged:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, s, base, append(runs("w1", runsOf(100, 0.02), 1), runs("w2", runsOf(100, 0.02), 0)...)) {
		t.Errorf("new failures on w1 were not flagged:\n%s", sb.String())
	}
}
