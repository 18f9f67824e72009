package flow

import (
	"context"
	"fmt"

	"fold3d/internal/cts"
	"fold3d/internal/extract"
	"fold3d/internal/netlist"
	"fold3d/internal/opt"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/power"
	"fold3d/internal/route"
	"fold3d/internal/sta"
)

// implState carries one block implementation through its stage plan. Every
// phase of the old monolithic ImplementBlock/finishBlock is a stage* method
// here; the methods are registered into a pipeline.Plan and invoked only by
// the pipeline executor (a fold3dlint call ban rejects direct
// stage-to-stage calls), so the dependency structure of the flow is explicit
// and the artifact cache can fingerprint exactly what each stage reads.
type implState struct {
	f      *Flow
	b      *netlist.Block
	aspect float64

	// Cross-stage engine state, created by the owning stage and consumed
	// downstream strictly through the plan's dependency edges. placer is
	// whichever registered backend the flow's Cfg.Placer resolved to; the
	// downstream stages only ever re-legalize through it.
	placer  place.Backend
	o       *opt.Optimizer
	ctsRes  *cts.Result
	reps    int
	swapped int
	timing  *sta.Report

	res *BlockResult
}

// blockPlan builds the stage DAG of one block implementation. The stage
// bodies preserve the exact operation order of the pre-pipeline flow —
// identical RNG draws, identical float accumulation — so fingerprints and
// the EXPERIMENTS.md numbers are unchanged; only the orchestration moved.
//
// The plan input is the content hash of the block as handed to the flow
// (netlist, outline, ports with their chip-assigned budgets, fold state)
// plus the seed and scale; each stage keys the configuration slice it
// reads. Identical inputs therefore hit the cache across styles and
// experiments whenever the work truly is identical — an unfolded block
// whose floorplan geometry and port budgets agree — and miss whenever any
// input honestly differs.
func (st *implState) blockPlan() *pipeline.Plan {
	f, b := st.f, st.b
	p := pipeline.NewPlan("block:" + b.Name)

	in := pipeline.NewHasher()
	in.F64(f.D.Cfg.Scale)
	in.Uint(f.Cfg.Seed)
	in.F64(st.aspect)
	hashBlock(in, b)
	p.SetInput(in.Sum())

	p.MustAdd(pipeline.Stage{
		Name: "prepare",
		Key: func(h *pipeline.Hasher) {
			h.F64(f.Cfg.Util)
			h.F64(f.Cfg.BufferAllowance)
			h.F64(f.Cfg.MacroChannel)
			h.Int(int(f.Cfg.Bond))
		},
		Run: st.stagePrepare,
	})
	p.MustAdd(pipeline.Stage{
		Name:  "place",
		After: []string{"prepare"},
		Key: func(h *pipeline.Hasher) {
			// place.Options is a flat value struct (no maps), so %#v is a
			// deterministic rendering of every field including Seed.
			h.Str(fmt.Sprintf("%#v", f.placeOptions()))
			// Every backend appends its registry name (WithDefaults has
			// already resolved an empty name to place.DefaultBackend), so
			// no two backends can ever alias each other's place-stage
			// artifacts — in this process, on disk, or across fleet peers.
			h.Str("placer=" + f.Cfg.Placer)
		},
		Run: st.stagePlace,
	})
	prev := "place"
	if b.Is3D {
		p.MustAdd(pipeline.Stage{
			Name:  "vias",
			After: []string{"place"},
			Key:   func(h *pipeline.Hasher) { h.Int(int(f.Cfg.Bond)) },
			Run:   st.stageVias,
		})
		prev = "vias"
	}
	p.MustAdd(pipeline.Stage{
		Name:  "extract",
		After: []string{prev},
		Key: func(h *pipeline.Hasher) {
			h.Int(int(f.Cfg.Bond))
			h.Bool(f.Cfg.TSVCoupling)
			h.Bool(f.Cfg.UseRSMT)
		},
		Run: st.stageExtract,
	})
	prev = "extract"
	if f.Cfg.Thermal.Enable && b.Is3D && f.Cfg.Bond == extract.F2B {
		// Thermal-via planning needs the F2B TSV site grid and an extracted
		// netlist; it mutates geometry, so it must precede buffering. The
		// full thermal config is the stage key — any knob change honestly
		// misses the cache — and with Enable false the stage is simply not
		// registered, so thermal-off plans fingerprint byte-identically to
		// pre-thermal builds.
		p.MustAdd(pipeline.Stage{
			Name:  "thermal-vias",
			After: []string{"extract"},
			Key:   func(h *pipeline.Hasher) { h.Str(fmt.Sprintf("%#v", f.Cfg.Thermal)) },
			Run:   st.stageThermalVias,
		})
		prev = "thermal-vias"
	}
	p.MustAdd(pipeline.Stage{
		Name:  "buffer",
		After: []string{prev},
		Key:   func(h *pipeline.Hasher) { h.Str(fmt.Sprintf("%#v", f.Cfg.Opt)) },
		Run:   st.stageBuffer,
	})
	p.MustAdd(pipeline.Stage{
		Name:  "cts",
		After: []string{"buffer"},
		Key:   func(h *pipeline.Hasher) { h.Str(fmt.Sprintf("%#v", f.Cfg.CTS)) },
		Run:   st.stageCTS,
	})
	p.MustAdd(pipeline.Stage{
		Name:  "legalize",
		After: []string{"cts"},
		Run:   st.stageLegalize,
	})
	p.MustAdd(pipeline.Stage{
		Name:  "timing-opt",
		After: []string{"legalize"},
		Run:   st.stageTimingOpt,
	})
	p.MustAdd(pipeline.Stage{
		Name:  "power-opt",
		After: []string{"timing-opt"},
		Run:   st.stagePowerOpt,
	})
	p.MustAdd(pipeline.Stage{
		Name:  "vth",
		After: []string{"power-opt"},
		Key:   func(h *pipeline.Hasher) { h.Bool(f.Cfg.UseHVT) },
		Run:   st.stageVth,
	})
	p.MustAdd(pipeline.Stage{
		Name:  "final",
		After: []string{"vth"},
		Key:   func(h *pipeline.Hasher) { h.Bool(f.Cfg.Opt.FullRecompute) },
		Run:   st.stageFinal,
	})
	return p
}

// stagePrepare sizes the block outline (2D: single die; 3D: per-die with
// TSV-pad allowance under F2B), fixes the routing-layer ceiling for F2F,
// and rescales the ports into the outline.
func (st *implState) stagePrepare(ctx context.Context) error {
	f, b := st.f, st.b
	if b.Is3D {
		// Under F2F bonding every metal layer is consumed by the block itself
		// (F2F vias sit on top of M9), so the block may route all nine layers
		// but becomes an over-the-block routing blockage at chip level (§6.1).
		if f.Cfg.Bond == extract.F2F {
			b.MaxRouteLayer = 9
		}
		if err := f.prepareOutline3D(b, st.aspect, f.tsvPadAllowance(b)); err != nil {
			return err
		}
	} else {
		if err := f.prepareOutline2D(b, st.aspect); err != nil {
			return err
		}
	}
	normalizePorts(b)
	return nil
}

// stagePlace runs mixed-size global placement and legalization. The placer
// is kept for downstream legalization passes (it owns the row model).
func (st *implState) stagePlace(ctx context.Context) error {
	placer, err := st.f.getPlacer()
	if err != nil {
		return err
	}
	st.placer = placer
	if err := st.placer.Place(st.b); err != nil {
		if st.b.Is3D {
			return fmt.Errorf("flow: 3D placing %s: %v", st.b.Name, err)
		}
		return fmt.Errorf("flow: placing %s: %v", st.b.Name, err)
	}
	return nil
}

// stageVias inserts the intra-block 3D connections of a folded block:
//
//	F2B: plan TSV sites (outside macros) and re-legalize — pads claim
//	     placement area, so overlapping cells are evicted.
//	F2F: run the paper's F2F via placer (3D net routing over the merged
//	     dies, §5.1); F2F vias consume no silicon, so no re-legalization.
func (st *implState) stageVias(ctx context.Context) error {
	f, b := st.f, st.b
	switch f.Cfg.Bond {
	case extract.F2B:
		tsvOpt := place.DefaultTSVPlanOptions(f.D.Cfg.Scale)
		if err := place.PlanTSVs(b, tsvOpt); err != nil {
			return fmt.Errorf("flow: TSV planning %s: %v", b.Name, err)
		}
		if err := st.placer.LegalizeAll(b); err != nil {
			return fmt.Errorf("flow: post-TSV legalization of %s: %v", b.Name, err)
		}
	case extract.F2F:
		if _, err := route.PlaceF2FVias(b, route.DefaultOptions()); err != nil {
			return fmt.Errorf("flow: F2F via placement on %s: %v", b.Name, err)
		}
	}
	return nil
}

// stageExtract runs parasitic extraction over the placed netlist.
func (st *implState) stageExtract(ctx context.Context) error {
	return st.f.Ex.Extract(st.b)
}

// stageBuffer creates the optimizer with its area budget (per-die for
// folded blocks — a die overflows individually) and inserts data-path
// repeaters on long, overloaded or high-fanout nets.
func (st *implState) stageBuffer(ctx context.Context) error {
	f, b := st.f, st.b
	optCfg := f.Cfg.Opt
	if b.Is3D {
		optCfg.AreaBudgetDie = f.repeaterBudgetPerDie(b)
	} else {
		optCfg.AreaBudget = f.repeaterBudget(b)
	}
	st.o = f.getOptimizer(optCfg)

	reps, err := st.o.BufferLongNets(b)
	if err != nil {
		return fmt.Errorf("flow: buffering %s: %v", b.Name, err)
	}
	st.reps = reps
	return nil
}

// stageCTS synthesizes the clock tree; the measured skew becomes the STA
// uncertainty of every later timing run.
func (st *implState) stageCTS(ctx context.Context) error {
	f, b := st.f, st.b
	ctsRes, err := cts.Run(b, f.D.Lib, f.D.Scale, f.Cfg.CTS)
	if err != nil {
		return fmt.Errorf("flow: CTS on %s: %v", b.Name, err)
	}
	st.ctsRes = ctsRes
	st.o.Skew = ctsRes.SkewPS
	return nil
}

// stageLegalize legalizes the repeaters and clock buffers that were dropped
// at ideal locations, re-extracts, and invalidates the optimizer's cached
// timing (CTS and legalization edited the block outside its mark API).
func (st *implState) stageLegalize(ctx context.Context) error {
	f, b := st.f, st.b
	if err := st.placer.LegalizeAll(b); err != nil {
		return fmt.Errorf("flow: post-CTS legalization of %s: %v", b.Name, err)
	}
	if err := f.Ex.Extract(b); err != nil {
		return err
	}
	st.o.InvalidateTiming()
	return nil
}

// stageTimingOpt closes setup timing by upsizing and splitting.
func (st *implState) stageTimingOpt(ctx context.Context) error {
	b := st.b
	if _, err := st.o.FixTiming(b); err != nil {
		return fmt.Errorf("flow: timing opt on %s: %v", b.Name, err)
	}
	return nil
}

// stagePowerOpt recovers power from positive slack. Two-tier slack
// allocation: downsizing stops at its guard-banded floor (DownsizeMargin),
// which deliberately strands slack that the cheaper Vth swaps then convert
// to leakage savings down to the tighter SlackMargin — mirroring how
// sign-off flows stage sizing and multi-Vth optimization.
func (st *implState) stagePowerOpt(ctx context.Context) error {
	b := st.b
	if _, err := st.o.RecoverPower(b); err != nil {
		return fmt.Errorf("flow: power opt on %s: %v", b.Name, err)
	}
	return nil
}

// stageVth runs the dual-Vth pass (paper §6.2) when the style enables it.
func (st *implState) stageVth(ctx context.Context) error {
	f, b := st.f, st.b
	if !f.Cfg.UseHVT {
		return nil
	}
	swapped, err := st.o.SwapToHVT(b)
	if err != nil {
		return fmt.Errorf("flow: Vth opt on %s: %v", b.Name, err)
	}
	st.swapped = swapped
	return nil
}

// stageFinal runs the sign-off analysis and assembles the BlockResult. The
// optimizer passes flush extraction after every geometry change, so
// parasitics are already current here and the final timing runs through the
// incremental engine. FullRecompute mode replays the historical
// full-extract + from-scratch STA instead; both produce byte-identical
// results (the fingerprint-equivalence test pins this down).
func (st *implState) stageFinal(ctx context.Context) error {
	f, b := st.f, st.b
	if f.Cfg.Opt.FullRecompute {
		if err := f.Ex.Extract(b); err != nil {
			return err
		}
	}
	timing, err := st.o.Timing(b)
	if err != nil {
		return fmt.Errorf("flow: final STA on %s: %v", b.Name, err)
	}
	// The engine's report aliases its internal arrays; copy it so recycling
	// the optimizer for the next block cannot mutate this block's sign-off
	// numbers after the fact.
	t := *timing
	t.CellSlack = append([]float64(nil), timing.CellSlack...)
	t.NetSlack = append([]float64(nil), timing.NetSlack...)
	t.ArrOut = append([]float64(nil), timing.ArrOut...)
	timing = &t
	st.timing = timing
	st.res = &BlockResult{
		Block:             b,
		Stats:             netlist.CollectStats(b, f.D.Scale.LongWireThreshold()),
		Power:             power.Analyze(b, f.D.Scale),
		Timing:            timing,
		CTS:               st.ctsRes,
		RepeatersInserted: st.reps,
		HVTSwapped:        st.swapped,
	}
	return nil
}

// hashChunk is the size at which hashBlock hands its encoded key material
// to the hasher: a block's bytes stream into SHA-256 a chunk at a time
// instead of being held whole.
const hashChunk = 4 << 10

// hashBlock mixes the complete pre-implementation state of b into h: the
// netlist (cells by master identity, macros, nets with connectivity and
// activity), the I/O ports with their chip-assigned positions and timing
// budgets, the outline, and the fold state. This is the honest input
// fingerprint of a block implementation: two blocks hash equal exactly when
// the flow would be handed indistinguishable work.
//
// The fields are written with the block codec's enc helper in a compact,
// prefix-free layout: every value at the fixed width of its Go type,
// little-endian (floats by bit pattern, never formatted; a bool as one
// byte), every string after its u32 length and every list after its u32
// count. The layout decodes back to the fields, so two blocks that differ
// in a hashed field never share a key. The encoding reaches the hasher
// through Hasher.Bytes each time it passes hashChunk at a record boundary;
// those boundaries follow from the content alone. TestHashBlockCoverage
// fails on any netlist field this function neither hashes nor excludes
// with a reason.
func hashBlock(h *pipeline.Hasher, b *netlist.Block) {
	e := enc{b: make([]byte, 0, 2*hashChunk)}
	next := func() {
		if len(e.b) >= hashChunk {
			h.Bytes(e.b)
			e.b = e.b[:0]
		}
	}
	e.str(b.Name)
	e.int(int(b.Clock))
	e.count(len(b.Cells))
	for i := range b.Cells {
		c := &b.Cells[i]
		e.str(c.Name)
		e.int(int(c.Master.Fam))
		e.int(c.Master.Drive)
		e.int(int(c.Master.Vth))
		e.point(c.Pos)
		e.int(int(c.Die))
		e.flag(c.Fixed)
		e.str(c.Group)
		e.flag(c.IsClockBuf)
		e.f64(c.Activity)
		next()
	}
	e.count(len(b.Macros))
	for i := range b.Macros {
		m := &b.Macros[i]
		e.str(m.Name)
		e.str(m.Model.Name)
		e.f64(m.Model.Width)
		e.f64(m.Model.Height)
		e.int(m.Model.Bits)
		e.point(m.Pos)
		e.int(int(m.Die))
		e.flag(m.Fixed)
		e.str(m.Group)
		e.f64(m.Activity)
		next()
	}
	e.count(len(b.Ports))
	for i := range b.Ports {
		p := &b.Ports[i]
		e.str(p.Name)
		e.u8(uint8(p.Dir))
		e.point(p.Pos)
		e.int(int(p.Die))
		e.f64(p.CapfF)
		e.f64(p.Budget)
		next()
	}
	e.count(len(b.Nets))
	for i := range b.Nets {
		n := &b.Nets[i]
		e.str(n.Name)
		e.u8(uint8(n.Kind))
		e.pin(n.Driver)
		e.count(len(n.Sinks))
		for _, s := range n.Sinks {
			e.pin(s)
		}
		e.f64(n.Activity)
		e.f64(n.RouteLen)
		e.int(n.Layer)
		e.int(n.Crossings)
		e.count(len(n.Vias))
		for _, v := range n.Vias {
			e.point(v)
		}
		e.f64(n.WireCapfF)
		e.f64(n.WireResOhm)
		next()
	}
	e.rect(b.Outline[0])
	e.rect(b.Outline[1])
	e.flag(b.Is3D)
	e.int(b.NumTSV)
	e.int(b.NumF2F)
	e.count(len(b.TSVPads))
	for _, r := range b.TSVPads {
		e.rect(r)
	}
	e.int(b.MaxRouteLayer)
	h.Bytes(e.b)
}
