package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"fold3d/internal/exp"
	"fold3d/internal/flow"
	"fold3d/internal/pipeline"
)

// servePassJobs is how many requests of the serve mix the flow pass of
// serve-fleet replays in-process.
const servePassJobs = 60

// cacheBudget is fold3d's default -cachebudget, so the flow pass caches
// exactly as the CLI does.
const cacheBudget = 512 << 20

// call is one generator invocation of a flow pass.
type call struct {
	gen exp.Generator
	cfg exp.Config
}

// passCalls lists the generator calls of w's flow pass: what one fold3d
// job of w runs at -workers 1, or for serve-fleet the first servePassJobs
// requests of its mix, run back to back as one node with -jobs 1 would.
func passCalls(w workload, seed uint64) ([]call, error) {
	cfg := exp.Config{Scale: w.scale, Seed: seed, Workers: 1}
	if w.thermal {
		cfg.Thermal = flow.ThermalConfig{Enable: true, TMaxBudgetC: tmaxC}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var calls []call
	add := func(name string, cfg exp.Config) error {
		g, ok := exp.ByName(name)
		if !ok {
			return fmt.Errorf("no experiment %q", name)
		}
		calls = append(calls, call{g, cfg})
		return nil
	}
	switch {
	case w.serve:
		for _, q := range requestMix(seed, servePassJobs) {
			c := cfg
			c.Seed = q.seed
			if err := add(q.exp, c); err != nil {
				return nil, err
			}
		}
	case w.exps == nil:
		calls = make([]call, 0, len(exp.Generators()))
		for _, g := range exp.Generators() {
			calls = append(calls, call{g, cfg})
		}
	default:
		for _, name := range w.exps {
			if err := add(name, cfg); err != nil {
				return nil, err
			}
		}
	}
	return calls, nil
}

// flowPass is one in-process run of a workload's generator calls.
type flowPass struct {
	// wall is the pass's elapsed seconds.
	wall float64
	// stdout is what fold3d prints for the same results.
	stdout []byte
	cache  pipeline.Stats
}

// runPass runs calls in order against one fresh cache; tr, when non-nil,
// traces it.
func runPass(ctx context.Context, calls []call, opts pipeline.CacheOptions, tr *tracer) (flowPass, error) {
	var p flowPass
	cache := pipeline.NewCache(opts)
	var out strings.Builder
	t0 := time.Now()
	for _, c := range calls {
		cfg := c.cfg
		cfg.Cache = cache
		if tr != nil {
			cfg.Progress = tr.event
			tr.begin()
		}
		r, err := c.gen.Run(ctx, cfg)
		if tr != nil {
			tr.end()
		}
		if err != nil {
			return p, fmt.Errorf("exp: %s: %w", c.gen.Name, err)
		}
		fmt.Fprintf(&out, "%s\n[%s]\n\n", strings.TrimRight(r.Report, "\n"), c.gen.Name)
	}
	p.wall = time.Since(t0).Seconds()
	p.stdout = []byte(out.String())
	p.cache = cache.Stats()
	return p, nil
}

// Trace phases. A chip build reports fold events per block, then
// floorplan, implement per block, chip-nets and done; the interval ending
// at an event is the work of that event's phase. The interval ending at
// the first fold event is the design generation before the chip build
// plus the first block, which sorts first (CCU) and is never folded, so
// it counts as outside the chip phases, like everything a generator does
// between chip builds.
const outsideChip = "exp.outside_chip"

// phaseOf maps flow progress stages to their phase metric prefix.
var phaseOf = map[string]string{
	flow.StageFold:      "flow.fold",
	flow.StageFloorplan: "flow.floorplan",
	flow.StageImplement: "flow.implement",
	flow.StageChipNets:  "flow.chip_nets",
	flow.StageDone:      "flow.aggregate",
}

// tracer attributes a flow pass's time and allocation to chip phases from
// the progress events, recorded from outside the flow: a span per
// generator call, split at every event. It relies on Workers=1, where
// events are sequential and each implement interval is one block.
type tracer struct {
	last, spanStart time.Time
	lastAlloc       uint64
	seconds         map[string]float64
	alloc           map[string]float64
	// spans is the time inside generator calls.
	spans         float64
	chips, blocks int
	blockMax      float64
}

func newTracer() *tracer {
	return &tracer{
		seconds: map[string]float64{},
		alloc:   map[string]float64{},
	}
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// begin opens the span of one generator call.
func (t *tracer) begin() {
	t.spanStart = time.Now()
	t.last, t.lastAlloc = t.spanStart, heapAllocs()
}

// end closes the span: the rest of the call is outside the chip phases.
func (t *tracer) end() {
	t.mark(outsideChip)
	t.spans += t.last.Sub(t.spanStart).Seconds()
}

// mark charges the interval since the last mark to phase and returns it.
func (t *tracer) mark(phase string) float64 {
	now, a := time.Now(), heapAllocs()
	dt := now.Sub(t.last).Seconds()
	t.seconds[phase] += dt
	t.alloc[phase] += float64(a - t.lastAlloc)
	t.last, t.lastAlloc = now, a
	return dt
}

// event is the flow progress hook.
func (t *tracer) event(p flow.Progress) {
	phase := phaseOf[p.Stage]
	if phase == "" || (p.Stage == flow.StageFold && p.Done == 1) {
		phase = outsideChip
	}
	dt := t.mark(phase)
	switch p.Stage {
	case flow.StageImplement:
		t.blocks++
		if dt > t.blockMax {
			t.blockMax = dt
		}
	case flow.StageDone:
		t.chips++
	}
}

// runTraced is the traced run of w: the flow pass untraced and then traced
// at Workers=1, the engine probes at w's scale, and the serve pass.
func runTraced(ctx context.Context, e *env, w workload, seed uint64, seconds float64, lim limits, g *goldenData) *report {
	rep := newReport(w.name, seed, seconds, 1)
	calls, err := passCalls(w, seed)
	if err != nil {
		rep.attempt(err)
		return rep
	}
	opts := pipeline.CacheOptions{MaxBytes: cacheBudget}
	if w.warm {
		// Set-up, as on the CLI: one cold run fills the disk cache the
		// passes then read.
		opts.Dir = e.cacheDir(w)
		fill := calls[0].cfg
		fill.Workers = 0
		fill.Cache = pipeline.NewCache(opts)
		_, err := exp.RunAll(ctx, fill, w.exps, nil)
		rep.attempt(err)
		if err != nil {
			return rep
		}
	}

	plain, err := runPass(ctx, calls, opts, nil)
	rep.attempt(err)
	tr := newTracer()
	traced, terr := runPass(ctx, calls, opts, tr)
	rep.attempt(terr)
	if err == nil && terr == nil {
		key, _ := cliArgs(w, seed, "")
		oc := outputCheck{want: g.CLI[strings.Join(key, " ")]}
		for _, p := range []flowPass{plain, traced} {
			if err := oc.check(p.stdout); err != nil {
				rep.fail(fmt.Errorf("flow pass: %w", err))
			}
		}
		tr.report(rep, traced, plain)
	}

	rep.attempt(runProbes(ctx, rep, w.scale, seed))

	// serve-fleet measures its full loop; the others probe the serve layer.
	serveLim := limits{setups: 1, reps: lim.reps}
	if serveLim.reps == 0 && !w.serve {
		serveLim.reps = serveProbeJobs
	}
	runServe(ctx, e, rep, seed, seconds, serveLim, g, true)
	return rep
}

// report sets the flow, cache and trace-quality layer metrics from a
// traced pass and the untraced pass it is compared with.
func (t *tracer) report(rep *report, traced, plain flowPass) {
	const mb = 1 << 20
	for _, phase := range []string{"flow.fold", "flow.floorplan", "flow.implement", "flow.chip_nets", "flow.aggregate", outsideChip} {
		rep.Metrics[phase+"_s"] = t.seconds[phase]
		rep.Metrics[phase+"_alloc_mb"] = t.alloc[phase] / mb
	}
	rep.Metrics["flow.chips_built"] = float64(t.chips)
	rep.Metrics["flow.blocks_implemented"] = float64(t.blocks)
	rep.Metrics["flow.implement_block_max_ms"] = t.blockMax * 1000
	st := traced.cache
	rep.Metrics["cache.hits"] = float64(st.Hits)
	rep.Metrics["cache.disk_hits"] = float64(st.DiskHits)
	rep.Metrics["cache.peer_hits"] = float64(st.PeerHits)
	rep.Metrics["cache.misses"] = float64(st.Misses)
	rep.Metrics["cache.stores"] = float64(st.Stores)
	rep.Metrics["cache.evicted"] = float64(st.Evicted)
	rep.Metrics["cache.hit_ratio"] = st.HitRatio()
	rep.Metrics["trace.coverage"] = t.spans / traced.wall
	rep.Metrics["trace.overhead_pct"] = 100 * (traced.wall/plain.wall - 1)
}
