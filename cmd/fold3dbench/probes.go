package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/flow"
	"fold3d/internal/netlist"
	"fold3d/internal/place"
	"fold3d/internal/power"
	"fold3d/internal/route"
	"fold3d/internal/sta"
	"fold3d/internal/t2"
	"fold3d/internal/thermal"
)

// Each engine probe times its call at least probeReps times and until the
// timed calls add up to probeSeconds, so that a call of microseconds is
// not read from three samples; the metric is the median.
const (
	probeReps    = 3
	probeSeconds = 0.1
	maxProbeReps = 2000
)

// thermalProbeVias is how many single-via incremental re-solves one
// thermal probe rep runs, as the thermal-via stage does per batch.
const thermalProbeVias = 8

// runProbes times one public call of each engine at the workload's scale.
// The input is the T2 design generated at that scale and seed: SPC0
// implemented once in 2D for the placement, extraction, timing and power
// probes, and folded and implemented under F2F (route) and F2B (thermal).
// Set-up between timed calls (cloning, re-arming) is untimed.
func runProbes(ctx context.Context, rep *report, scale float64, seed uint64) error {
	// repeat times call, running prep untimed before each.
	repeat := func(name string, prep, call func() error) error {
		var xs []float64
		for total := 0.0; len(xs) < maxProbeReps && (len(xs) < probeReps || total < probeSeconds); {
			if prep != nil {
				if err := prep(); err != nil {
					return fmt.Errorf("probe %s: %w", name, err)
				}
			}
			t0 := time.Now()
			if err := call(); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			xs = append(xs, time.Since(t0).Seconds())
			total += xs[len(xs)-1]
		}
		rep.timing(name, xs, 1000)
		return nil
	}
	// c is the block the current probe works on; cloneOf re-arms it.
	var c *netlist.Block
	cloneOf := func(b *netlist.Block) func() error {
		return func() error { c = b.Clone(); return nil }
	}

	var d *t2.Design
	if err := repeat("t2.generate_ms", nil, func() (err error) {
		d, err = t2.Generate(t2.Config{Scale: scale, Seed: seed})
		return err
	}); err != nil {
		return err
	}
	spc, l2t := d.Blocks["SPC0"], d.Blocks["L2T0"]
	aspect := d.Specs["SPC0"].Aspect
	fc := flow.DefaultConfig()
	fc.Workers = 1
	spcFold := spcFoldOptions(fc.Seed)
	if err := repeat("core.fold_spc_ms", cloneOf(spc), func() error {
		_, err := core.Fold(c, spcFold)
		return err
	}); err != nil {
		return err
	}
	if err := repeat("core.fold_l2t_ms", cloneOf(l2t), func() error {
		_, err := core.Fold(c, core.DefaultFoldOptions())
		return err
	}); err != nil {
		return err
	}

	fl := flow.New(d, fc)
	var impl *netlist.Block
	if err := repeat("flow.implement_block_ms", cloneOf(spc), func() error {
		r, err := fl.ImplementBlockContext(ctx, c, aspect)
		if err == nil {
			impl = r.Block
		}
		return err
	}); err != nil {
		return err
	}

	// The flow's placement options: legalization headroom over the sizing
	// utilization, the flow seed.
	po := place.DefaultOptions()
	po.TargetUtil = fc.Util + 0.12
	po.Seed = fc.Seed
	var pl place.Backend
	// Force runs last: the legalization probe re-legalizes its placement
	// with its placer, as the flow's post-CTS legalization does.
	for _, backend := range []string{"analytical", "force"} {
		prep := func() (err error) {
			c = unplaced(spc, impl)
			pl, err = place.NewBackend(backend, po)
			return err
		}
		if err := repeat("place."+backend+"_place_ms", prep, func() error { return pl.Place(c) }); err != nil {
			return err
		}
	}
	if err := repeat("place.legalize_ms", nil, func() error { return pl.LegalizeAll(c) }); err != nil {
		return err
	}

	c = impl.Clone()
	if err := repeat("extract.full_ms", nil, func() error { return fl.Ex.Extract(c) }); err != nil {
		return err
	}
	if err := repeat("extract.update_1pct_ms", nil, func() error { return fl.Ex.Update(c, everyHundredth(len(c.Nets))) }); err != nil {
		return err
	}
	eng := sta.NewEngine(c)
	if _, err := eng.Analyze(0); err != nil {
		return err
	}
	analyze := func() error { _, err := eng.Analyze(0); return err }
	if err := repeat("sta.full_ms", func() error { eng.InvalidateTopology(); return nil }, analyze); err != nil {
		return err
	}
	dirty := func() error {
		for _, ci := range everyHundredth(len(c.Cells)) {
			eng.MarkCellDirty(ci)
		}
		return nil
	}
	if err := repeat("sta.incr_1pct_ms", dirty, analyze); err != nil {
		return err
	}
	if err := repeat("power.analyze_ms", nil, func() error {
		if r := power.Analyze(c, d.Scale); !(r.TotalMW > 0) {
			return fmt.Errorf("no power")
		}
		return nil
	}); err != nil {
		return err
	}

	f2f := fc
	f2f.Bond = extract.F2F
	folded, _, err := flow.New(d, f2f).FoldAndImplementContext(ctx, spc.Clone(), spcFold, aspect)
	if err != nil {
		return err
	}
	if err := repeat("route.f2f_vias_ms", cloneOf(folded.Block), func() error {
		_, err := route.PlaceF2FVias(c, route.DefaultOptions())
		return err
	}); err != nil {
		return err
	}

	f2b := fc
	f2b.Bond = extract.F2B
	folded, _, err = flow.New(d, f2b).FoldAndImplementContext(ctx, spc.Clone(), spcFold, aspect)
	if err != nil {
		return err
	}
	return thermalProbes(rep, repeat, folded.Block, d)
}

// thermalProbes times the multigrid engine on a folded F2B block: a full
// load and solve, then single-via incremental re-solves at the hottest
// tile, counting the relaxation work of the re-solves exactly.
func thermalProbes(rep *report, repeat func(string, func() error, func() error) error, b *netlist.Block, d *t2.Design) error {
	params := thermal.DefaultParams()
	eng := thermal.NewEngine()
	solve := func() error {
		if _, err := eng.LoadBlock(b, d.Scale, extract.F2B, params); err != nil {
			return err
		}
		_, err := eng.Solve()
		return err
	}
	if err := repeat("thermal.block_solve_ms", nil, solve); err != nil {
		return err
	}
	// One drawn pad stands for sqrt(scale) physical vias, as in the flow.
	dk := params.KTSVWPerK * math.Sqrt(d.Scale.Scale)
	var resolves []float64
	var relax int64
	for i := 0; i < probeReps; i++ {
		if err := solve(); err != nil {
			return err
		}
		r0 := eng.Relaxations()
		for v := 0; v < thermalProbeVias; v++ {
			_, ix, iy, _ := eng.PeakTile()
			eng.AddVertKAt(ix, iy, dk)
			t0 := time.Now()
			if _, err := eng.Resolve(); err != nil {
				return fmt.Errorf("probe thermal.resolve_ms: %w", err)
			}
			resolves = append(resolves, time.Since(t0).Seconds())
		}
		relax = eng.Relaxations() - r0
	}
	rep.timing("thermal.resolve_ms", resolves, 1000)
	rep.Metrics["thermal.relaxations"] = float64(relax)
	return nil
}

// spcFoldOptions are the flow's second-level fold of a SPARC core: its
// foldable FUBs split across the dies.
func spcFoldOptions(flowSeed uint64) core.FoldOptions {
	fo := core.DefaultFoldOptions()
	fo.Seed = flowSeed + 101
	fo.Mode = core.FoldSecondLevel
	for _, g := range t2.SPCFUBs() {
		if g.Fold {
			fo.FoldGroups = append(fo.FoldGroups, g.Name)
		}
	}
	return fo
}

// unplaced rebuilds the block the flow's place stage starts from: the
// synthesized netlist syn inside the outline its implementation impl got,
// with the macros and ports where outline preparation put them. The flow
// only appends cells and ports after placement, so the leading ones of
// impl are syn's.
func unplaced(syn, impl *netlist.Block) *netlist.Block {
	b := syn.Clone()
	b.Outline = impl.Outline
	for i := range b.Macros {
		b.Macros[i].Pos, b.Macros[i].Fixed = impl.Macros[i].Pos, impl.Macros[i].Fixed
	}
	for i := range b.Ports {
		b.Ports[i].Pos = impl.Ports[i].Pos
	}
	return b
}

// everyHundredth returns every hundredth index below n: the 1% of nets or
// cells an incremental probe touches.
func everyHundredth(n int) []int32 {
	out := make([]int32, 0, n/100+1)
	for i := 0; i < n; i += 100 {
		out = append(out, int32(i))
	}
	return out
}
