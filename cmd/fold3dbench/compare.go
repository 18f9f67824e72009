package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (metric, workload) comparison.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judgement compares one end-to-end metric on one workload between the
// parent's runs and the change's runs.
type judgement struct {
	// worse is the share of the parent's median by which the change's
	// median is worse; negative when it is better.
	worse float64
	// spread is the wider of the two sides' run-to-run spreads.
	spread  float64
	verdict string
}

// judge applies a metric's bound: a change whose median is worse than the
// parent's by more than the bound regresses; when either side's spread
// exceeds the bound the comparison is unresolved, unless every run of the
// change beats every run of the parent.
func judge(base, change []float64, better string, bound float64) judgement {
	mb, mc := median(base), median(change)
	j := judgement{worse: (mc - mb) / mb, spread: math.Max(spread(base), spread(change))}
	if better == "higher" {
		j.worse = -j.worse
	}
	beats := func(a, b float64) bool {
		if better == "higher" {
			return a > b
		}
		return a < b
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && beats(c, b)
		}
	}
	switch {
	case allBetter && j.worse < 0:
		j.verdict = verdictBetter
	case j.spread > bound:
		j.verdict = verdictUnresolved
	case j.worse > bound:
		j.verdict = verdictRegression
	case -j.worse > j.spread:
		j.verdict = verdictBetter
	default:
		j.verdict = verdictOK
	}
	return j
}

// compare prints one row per workload comparing the end-to-end runs in
// base and change (result files of the parent and the change, trace 0
// runs only) under the bounds of s. It reports whether any metric, or the
// failure count, regressed.
func compare(w io.Writer, s *spec, base, change []*report) bool {
	regressed := false
	fmt.Fprintf(w, "%-16s", "workload")
	for _, m := range s.EndToEnd {
		fmt.Fprintf(w, " %-24s", fmt.Sprintf("%s (%.0f%%)", m.Name, 100*m.Bound))
	}
	fmt.Fprintln(w, " failed")
	for _, wl := range s.Workloads {
		b, c := e2eRuns(base, wl.Name), e2eRuns(change, wl.Name)
		if len(b) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "%-16s runs missing: %d of the parent, %d of the change\n", wl.Name, len(b), len(c))
			continue
		}
		fmt.Fprintf(w, "%-16s", wl.Name)
		for _, m := range s.EndToEnd {
			bv, cv := values(b, m.Name), values(c, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, " %-24s", "not measured")
				continue
			}
			j := judge(bv, cv, m.Better, m.Bound)
			regressed = regressed || j.verdict == verdictRegression
			fmt.Fprintf(w, " %-24s", fmt.Sprintf("%+.1f%% %s", 100*j.worse, j.verdict))
		}
		bf, cf := failed(b), failed(c)
		cell := fmt.Sprintf("%d -> %d", bf, cf)
		if cf > bf {
			regressed = true
			cell += " " + verdictRegression
		}
		fmt.Fprintf(w, " %s (runs %d/%d)\n", cell, len(b), len(c))
	}
	return regressed
}

// e2eRuns selects the untraced runs of one workload.
func e2eRuns(runs []*report, workload string) []*report {
	var out []*report
	for _, r := range runs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

// values collects one metric across runs, skipping runs that lack it.
func values(runs []*report, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// failed sums the failed operations of runs.
func failed(runs []*report) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
	}
	return n
}
