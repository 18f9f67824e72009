package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload at its smallest size against binaries
// built from this checkout: one set-up and one rep of each CLI workload at
// scale 1000, twenty serve-fleet jobs, and one traced run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs fold3d and fold3dd")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, bin: t.TempDir(), work: t.TempDir()}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := e.build(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	small := limits{setups: 1, reps: 1}
	for _, w := range workloads {
		w.scale = 1000
		var rep *report
		if w.serve {
			rep = newReport(w.name, 42, 0, 0)
			runServe(ctx, e, rep, 42, 0, limits{setups: 1, reps: 20}, g, false)
		} else {
			rep = runCLI(ctx, e, w, 42, 0, small, g)
		}
		if !rep.correct(e2eMetrics) {
			t.Errorf("%s: failed %d of %d, errors %v, metrics %v", w.name, rep.Failed, rep.Attempted, rep.Errors, rep.Metrics)
		}
	}

	w, _ := workloadByName("chip-s100")
	w.scale = 1000
	rep := runTraced(ctx, e, w, 42, 0, limits{reps: 20}, g)
	if rep.Failed > 0 || len(rep.Errors) > 0 {
		t.Fatalf("traced run: failed %d of %d, errors %v", rep.Failed, rep.Attempted, rep.Errors)
	}
	for name, want := range map[string]float64{"flow.chips_built": 3, "flow.blocks_implemented": 138} {
		if got := rep.Metrics[name]; got != want {
			t.Errorf("traced run: %s = %v, want %v", name, got, want)
		}
	}
	if c := rep.Metrics["trace.coverage"]; !(c >= 0.9 && c <= 1) {
		t.Errorf("trace.coverage = %v, want in [0.9, 1]", c)
	}
	for _, name := range []string{"flow.implement_s", "place.force_place_ms", "sta.incr_1pct_ms", "thermal.relaxations", "serve.run_p50_ms", "serve.forwarded_ratio"} {
		if !(rep.Metrics[name] > 0) {
			t.Errorf("traced run: %s = %v, want > 0", name, rep.Metrics[name])
		}
	}
}
