package main

import (
	"context"
	"os"
	"strings"
	"time"
)

// limits sizes one run. A measured run sets up the workload's setups
// times and then measures reps for the run's seconds; tests shrink both.
type limits struct {
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// reps, when positive, fixes the measured reps (CLI) or jobs (serve)
	// instead of measuring for the run's seconds.
	reps int
}

// minReps is the fewest measured reps a timed run stops at, so a median
// exists even when one rep outlasts the run's seconds.
const minReps = 3

// done reports whether a measured loop that has attempted n reps since
// start is complete.
func (l limits) done(n int, start time.Time, seconds float64) bool {
	if l.reps > 0 {
		return n >= l.reps
	}
	return n >= minReps && time.Since(start).Seconds() >= seconds
}

// runCLI measures a CLI workload end to end: fold3d invocations as child
// processes, tracing off, -workers 0. Set-up is one discarded warm-up
// invocation; for a warm workload it is the cold run that fills the
// -cachedir every measured rep then reads. Every output is checked against
// the golden digest (or the run's first output) and the workload's
// self-check.
func runCLI(ctx context.Context, e *env, w workload, seed uint64, seconds float64, lim limits, g *goldenData) *report {
	rep := newReport(w.name, seed, seconds, 0)
	cachedir := ""
	if w.warm {
		cachedir = e.cacheDir(w)
	}
	key, args := cliArgs(w, seed, cachedir)
	oc := outputCheck{want: g.CLI[strings.Join(key, " ")]}
	job := func(setup bool) (invocation, bool) {
		inv, err := invoke(ctx, e.fold3d(), args...)
		if err == nil {
			err = oc.check(inv.stdout)
		}
		// A warm workload's set-up is its cold fill, which its self-check
		// (no misses, no stores) rejects by design.
		if err == nil && w.check != nil && !(setup && w.warm) {
			err = w.check(string(inv.stdout), string(inv.stderr))
		}
		rep.attempt(err)
		return inv, err == nil
	}

	var setups []float64
	for i := 0; i < lim.setups; i++ {
		if w.warm {
			if err := os.RemoveAll(cachedir); err != nil {
				rep.fail(err)
			}
		}
		if inv, ok := job(true); ok {
			setups = append(setups, inv.wall)
		}
	}

	var walls, rss []float64
	start := time.Now()
	for n := 0; ctx.Err() == nil && !lim.done(n, start, seconds); n++ {
		if inv, ok := job(false); ok {
			walls = append(walls, inv.wall)
			rss = append(rss, inv.rssMB)
		}
	}
	elapsed := time.Since(start).Seconds()

	rep.timing("setup_s", setups, 1)
	rep.timing("latency_p50_ms", walls, 1000)
	rep.timing("peak_rss_mb", rss, 1)
	if len(walls) > 0 {
		rep.Metrics["jobs_per_s"] = float64(len(walls)) / elapsed
	}
	return rep
}
