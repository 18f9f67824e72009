package flow

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/floorplan"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/pool"
	"fold3d/internal/power"
	"fold3d/internal/t2"
	"fold3d/internal/tech"
)

// ChipStats aggregates the full-chip metrics of the paper's Tables 2 and 5.
type ChipStats struct {
	// FootprintUm2 is the drawn die-outline area (one die of a stack).
	FootprintUm2 float64
	// FootprintMM2 is the physical-equivalent footprint in mm².
	FootprintMM2 float64
	// WirelengthUm is the total drawn wirelength (blocks + chip nets).
	WirelengthUm float64
	// WirelengthM is the physical-equivalent wirelength in meters.
	WirelengthM float64
	NumCells    int
	NumBuffers  int
	NumHVT      int
	// TSVInter is the physical inter-block TSV count (TSV arrays).
	TSVInter int
	// ViasIntraDrawn is the drawn intra-block 3D connection count (TSVs or
	// F2F vias, depending on the bonding style).
	ViasIntraDrawn int
	// ViasPaperEquiv estimates the physical 3D connection count:
	// inter-block TSVs plus intra-block vias scaled by sqrt(scale).
	ViasPaperEquiv int
	// ChipRepeaters is the drawn-equivalent repeater count on inter-block
	// nets.
	ChipRepeaters int
}

// ChipResult is one full-chip implementation.
type ChipResult struct {
	Style    t2.Style
	FP       *floorplan.Floorplan
	Blocks   map[string]*BlockResult
	ChipNets []floorplan.ChipNet
	Stats    ChipStats
	Power    power.Report
	// ChipNetPower is the inter-block portion included in Power.
	ChipNetPower power.Report
}

// BuildChip implements the full T2 in the given design style. The flow's
// bonding configuration is overridden by the style for folded designs
// (StyleFoldF2F forces F2F). It is BuildChipContext under
// context.Background().
func (f *Flow) BuildChip(style t2.Style) (*ChipResult, error) {
	return f.BuildChipContext(context.Background(), style)
}

// BuildChipContext is BuildChip honoring ctx: per-block implementation
// fans out across Cfg.Workers goroutines (0 = GOMAXPROCS, 1 = exact
// sequential legacy path), cancellation is checked between stages of every
// block, and Cfg.Progress receives live status. The result is byte-
// identical for every worker count: each block draws randomness from its
// own seeded stream and the aggregation reduces in sorted block-name
// order, so the merge never depends on completion order.
func (f *Flow) BuildChipContext(ctx context.Context, style t2.Style) (*ChipResult, error) {
	cfg := f.Cfg
	switch style {
	case t2.StyleFoldF2F:
		cfg.Bond = extract.F2F
	case t2.StyleFoldF2B, t2.StyleCoreCache, t2.StyleCoreCore:
		cfg.Bond = extract.F2B
	}
	fl := New(f.D, cfg)
	return fl.buildChip(ctx, style)
}

// chipState carries one full-chip build through its stage plan: folding,
// floorplanning, block implementation, chip-net extraction, aggregation.
// Like implState, its stage* methods are registered into a pipeline.Plan
// and invoked only by the executor; the chip plan itself runs uncached (its
// own work is cheap), while the per-block fold plans inside stageFold and
// implementation plans inside stageImplement carry the artifact cache.
type chipState struct {
	f     *Flow
	style t2.Style

	names []string // sorted block names — the deterministic iteration order
	fp    *floorplan.Floorplan
	res   *ChipResult
}

func (f *Flow) buildChip(ctx context.Context, style t2.Style) (*ChipResult, error) {
	d := f.D
	if len(d.Blocks) != len(d.Specs) {
		return nil, fmt.Errorf("flow: chip build needs the full design (have %d of %d blocks); generate without Only",
			len(d.Blocks), len(d.Specs))
	}
	st := &chipState{f: f, style: style}
	for name := range d.Blocks {
		st.names = append(st.names, name)
	}
	sort.Strings(st.names)

	p := pipeline.NewPlan("chip:" + style.String())
	// Chip stages run uncached, so no Key material is declared: the block
	// plans inside stageFold and stageImplement fingerprint everything that
	// matters.
	p.MustAdd(pipeline.Stage{Name: "fold", Run: st.stageFold})
	p.MustAdd(pipeline.Stage{Name: "floorplan", After: []string{"fold"}, Run: st.stageFloorplan})
	p.MustAdd(pipeline.Stage{Name: "implement", After: []string{"floorplan"}, Run: st.stageImplement})
	p.MustAdd(pipeline.Stage{Name: "chip-nets", After: []string{"implement"}, Run: st.stageChipNets})
	p.MustAdd(pipeline.Stage{Name: "aggregate", After: []string{"chip-nets"}, Run: st.stageAggregate})

	var ex pipeline.Executor
	if err := ex.Run(ctx, p, nil); err != nil {
		return nil, err
	}
	return st.res, nil
}

// stageFold folds the folded blocks first (partitioning needs no geometry),
// so the floorplan can derive every block's shape from its actual content
// and the fixed shapes and the block implementations agree by construction.
// The folds fan out across Cfg.Workers: blocks are disjoint netlists and
// each fold is seeded by its own options, so the result is the same for
// every worker count. Each fold goes through the artifact cache (see
// foldBlock).
func (st *chipState) stageFold(ctx context.Context) error {
	f, d, style, names := st.f, st.f.D, st.style, st.names
	var done completions
	return pool.Run(ctx, f.Cfg.Workers, len(names), func(ctx context.Context, i int) error {
		name := names[i]
		if t2.FoldedInStyle(style, name) {
			if _, err := f.foldBlock(ctx, d.Blocks[name], f.foldOptionsFor(name)); err != nil {
				return err
			}
		}
		f.progress(StageFold, name, done.next(), len(names))
		return nil
	})
}

// completions counts the finished tasks of a pool fan-out, so progress
// events report Done in completion order.
type completions struct {
	mu sync.Mutex
	n  int
}

// next records one completion and returns the running count.
func (c *completions) next() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// stageFloorplan runs the user-defined row plan (the paper's Figure 8
// arrangements), plans inter-block TSV arrays for die-crossing bundles (F2B
// stacks), fixes block outlines and ports from the floorplan, and computes
// chip-level net geometry with the port timing budgets it implies — the
// paper derives block I/O constraints from chip-level 3D STA (§2.2): a
// port's budget is the cycle time spent outside the block, so the shorter
// inter-block wires of 3D stacks hand every block more internal slack,
// which the optimizer converts to smaller and higher-Vth cells.
func (st *chipState) stageFloorplan(ctx context.Context) error {
	f, d, style := st.f, st.f.D, st.style
	shapes := make(map[string]floorplan.Shape, len(d.Specs))
	for _, name := range st.names {
		b := d.Blocks[name]
		r := f.ShapeForBlock(b, d.Specs[name].Aspect)
		shapes[name] = floorplan.Shape{Name: name, W: r.W(), H: r.H(),
			Both: t2.FoldedInStyle(style, name)}
	}
	fp, err := floorplan.RowPlan(shapes, t2.Rows(style), f.chipChannel())
	if err != nil {
		return fmt.Errorf("flow: %s floorplan: %v", style, err)
	}
	st.fp = fp

	if style.Is3D() {
		tsvOpt := place.DefaultTSVPlanOptions(d.Cfg.Scale)
		err := floorplan.PlanInterblockTSVs(fp, d.Bundles,
			floorplan.PlanTSVArrayOptions{PitchDrawn: tsvOpt.DrawnPitch()})
		if err != nil {
			return fmt.Errorf("flow: TSV arrays: %v", err)
		}
	}

	for name, b := range d.Blocks {
		p, err := fp.Find(name)
		if err != nil {
			return err
		}
		local := geom.NewRect(0, 0, p.Rect.W(), p.Rect.H())
		b.Outline[0] = local
		if p.Both {
			b.Outline[1] = local
		}
	}
	chipNets, err := floorplan.AssignPorts(d.Blocks, fp, d.DrawnBundles())
	if err != nil {
		return fmt.Errorf("flow: port assignment: %v", err)
	}
	if err := d.ConnectPorts(chipNets); err != nil {
		return err
	}
	// Folded blocks' ports follow the crossbar half / FUB they connect to.
	for _, name := range st.names {
		if t2.FoldedInStyle(style, name) {
			core.MovePortsWithLogic(d.Blocks[name])
		}
	}

	if err := f.routeChipNets(fp, chipNets, style); err != nil {
		return err
	}
	f.budgetPorts(chipNets)
	st.res = &ChipResult{
		Style:    style,
		FP:       fp,
		Blocks:   make(map[string]*BlockResult, len(d.Blocks)),
		ChipNets: chipNets,
	}
	f.progress(StageFloorplan, "", 1, 1)
	return nil
}

// stageImplement implements every block. The fan-out across Cfg.Workers is
// safe and bit-reproducible by construction: blocks are disjoint netlists,
// every shared input (design database, library, extractor config) is read-
// only during this stage, each block's stochastic engines are seeded from
// the flow seed independently of scheduling, and the merge below writes
// into per-index slots before the sorted-name reduce — so Workers=1 and
// Workers=N produce byte-identical chips. Each block runs its own stage
// plan against the shared artifact cache (Cfg.Cache), so a block whose
// input state matches a previous build — the same style rebuilt in another
// experiment, or an unfolded block whose geometry agrees across styles —
// restores instead of recomputing.
func (st *chipState) stageImplement(ctx context.Context) error {
	f, d := st.f, st.f.D
	names := st.names
	results := make([]*BlockResult, len(names))
	var done completions
	err := pool.Run(ctx, f.Cfg.Workers, len(names), func(ctx context.Context, i int) error {
		name := names[i]
		br, err := f.ImplementBlockContext(ctx, d.Blocks[name], d.Specs[name].Aspect)
		if err != nil {
			return fmt.Errorf("flow: implementing %s: %w", name, err)
		}
		results[i] = br
		f.progress(StageImplement, name, done.next(), len(names))
		return nil
	})
	if err != nil {
		return err
	}
	for i, name := range names {
		st.res.Blocks[name] = results[i]
	}
	return nil
}

// stageChipNets computes chip-level net lengths, power and repeaters.
func (st *chipState) stageChipNets(ctx context.Context) error {
	if err := st.f.extractChipNets(st.res, st.style); err != nil {
		return err
	}
	st.f.progress(StageChipNets, "", 1, 1)
	return nil
}

// stageAggregate fills the chip-level stats and power totals.
func (st *chipState) stageAggregate(ctx context.Context) error {
	st.f.aggregate(st.res)
	st.f.progress(StageDone, "", len(st.names), len(st.names))
	return nil
}

// foldOptionsFor picks the paper's fold mode per block type: the CCX folds
// naturally into PCX/CPX, the SPC gets second-level FUB folding, everything
// else is min-cut.
func (f *Flow) foldOptionsFor(name string) core.FoldOptions {
	fo := core.DefaultFoldOptions()
	fo.Seed = f.Cfg.Seed + 101
	switch {
	case name == "CCX":
		fo.Mode = core.FoldNatural
		fo.GroupDie = map[string]int{"pcx": 0, "cpx": 1}
	case len(name) >= 3 && name[:3] == "L2D":
		// Two memory sub-banks per die with their logic (paper §4.4).
		fo.Mode = core.FoldNatural
		fo.GroupDie = map[string]int{"bank0": 0, "bank1": 0, "bank2": 1, "bank3": 1}
	case len(name) >= 3 && name[:3] == "SPC":
		fo.Mode = core.FoldSecondLevel
		var groups []string
		for _, g := range t2.SPCFUBs() {
			if g.Fold {
				groups = append(groups, g.Name)
			}
		}
		fo.FoldGroups = groups
	}
	return fo
}

// chipChannel is the drawn routing-channel width between blocks.
func (f *Flow) chipChannel() float64 {
	// ~120µm physical channels, shrunk geometrically.
	return math.Max(3.0, 70/f.D.Scale.LinearShrink())
}

// chipRepeaterSpacingPhys is the physical repeater spacing on the top-metal
// chip routes, µm.
const chipRepeaterSpacingPhys = 420.0

// routeChipNets fills per-wire drawn lengths, crossings and wire caps for
// the inter-block nets, routing die-crossing wires through their bundle's
// TSV array under F2B.
func (f *Flow) routeChipNets(fp *floorplan.Floorplan, chipNets []floorplan.ChipNet, style t2.Style) error {
	d := f.D
	arrayOf := make(map[string]geom.Point)
	for _, a := range fp.Arrays {
		arrayOf[a.Bundle] = a.Rect.Center()
	}
	topLayer := d.Lib.Metal[8] // M9
	cwPhys := topLayer.CfFUm
	shrink := d.Scale.LinearShrink()

	for i := range chipNets {
		cn := &chipNets[i]
		pa, err := fp.Find(cn.A.Block)
		if err != nil {
			return err
		}
		pb, err := fp.Find(cn.B.Block)
		if err != nil {
			return err
		}
		var posA, posB geom.Point
		var dieA, dieB netlist.Die
		if cn.A.Port >= 0 {
			p := d.Blocks[cn.A.Block].Ports[cn.A.Port]
			posA = p.Pos.Add(pa.Rect.Lo)
			dieA = p.Die
		} else {
			posA = pa.Rect.Center()
			dieA = pa.Die
		}
		if cn.B.Port >= 0 {
			p := d.Blocks[cn.B.Block].Ports[cn.B.Port]
			posB = p.Pos.Add(pb.Rect.Lo)
			dieB = p.Die
		} else {
			posB = pb.Rect.Center()
			dieB = pb.Die
		}
		// Non-folded blocks live wholly on their floorplan die.
		if !pa.Both {
			dieA = pa.Die
		}
		if !pb.Both {
			dieB = pb.Die
		}

		ln := posA.ManhattanDist(posB)
		crossing := style.Is3D() && dieA != dieB
		viaCap := 0.0
		cn.Crossings = 0
		if crossing {
			if f.Cfg.Bond == extract.F2F {
				viaCap = d.Lib.F2F.CfF
			} else {
				viaCap = d.Lib.TSV.CfF
				if ap, ok := arrayOf[cn.Bundle]; ok {
					ln = posA.ManhattanDist(ap) + ap.ManhattanDist(posB)
				}
			}
			cn.Crossings = 1
		}
		cn.RouteLen = ln
		cn.WireCapfF = ln*shrink*cwPhys + viaCap
	}
	return nil
}

// chipWireDelayPSPerUm is the delay of a chip-level top-metal route per
// physical µm. Only M8/M9 remain for over-the-block routing (§2.2), so chip
// routes are congested and detoured well beyond the optimally-repeatered
// ideal (~0.16 ps/µm); 0.30 ps/µm reflects sign-off numbers for congested
// 28nm global routing.
const chipWireDelayPSPerUm = 0.30

// budgetPorts sets every port's timing budget from its chip net's physical
// route: half the buffered inter-block wire delay is charged to each end,
// on top of a fixed chip-level margin. Shorter 3D chip routes therefore
// loosen every block's internal timing — the paper's source of extra slack.
func (f *Flow) budgetPorts(chipNets []floorplan.ChipNet) {
	d := f.D
	for i := range chipNets {
		cn := &chipNets[i]
		physLen := cn.RouteLen * d.Scale.LinearShrink()
		delay := physLen * chipWireDelayPSPerUm
		if cn.Crossings > 0 && f.Cfg.Bond == extract.F2B {
			delay += d.Lib.TSV.ROhm*d.Lib.TSV.CfF*1e-3 + 12 // TSV + pad buffering
		}
		for _, pr := range []floorplan.PortRef{cn.A, cn.B} {
			if pr.Port < 0 {
				continue
			}
			b := d.Blocks[pr.Block]
			period := b.Clock.PeriodPS()
			budget := 0.10*period + 0.5*delay // fixed chip margin + wire share
			// Feasibility clamp: the chip-level STA would never hand a block
			// less than ~half the period — past that the inter-block path
			// must be pipelined, not squeezed out of the block.
			if budget > 0.45*period {
				budget = 0.45 * period
			}
			b.Ports[pr.Port].Budget = budget
		}
	}
}

// extractChipNets computes the real-equivalent power of the inter-block
// nets and their repeater population from the routed geometry.
func (f *Flow) extractChipNets(res *ChipResult, style t2.Style) error {
	d := f.D
	ps := d.PortScale() // physical wires per drawn wire
	buf := d.Lib.MustCell(tech.BUF, 8, tech.RVT)
	var netP power.Report
	totalRepeaters := 0.0

	for i := range res.ChipNets {
		cn := &res.ChipNets[i]
		physLen := cn.RouteLen * d.Scale.LinearShrink()
		freq := tech.CPUClock.FreqMHz()
		if spec, ok := d.Specs[cn.A.Block]; ok && spec.Clock == tech.IOClock {
			freq = tech.IOClock.FreqMHz()
		}
		act := cn.Activity
		if act == 0 {
			act = 0.12
		}
		netP.WireMW += tech.DynamicPowerMW(cn.WireCapfF, act, freq) * ps

		// Repeaters: one per physical spacing on each of the ps physical
		// wires; normalized to drawn-equivalent units (divide by scale).
		reps := physLen / chipRepeaterSpacingPhys * ps / d.Cfg.Scale
		totalRepeaters += reps
		// Repeater power at physical magnitude: drawn-equivalents x scale.
		nRealReps := reps * d.Cfg.Scale
		netP.CellMW += tech.DynamicPowerMW(buf.IntCap, act, freq) * nRealReps
		netP.LeakageMW += buf.LeaknW * 1e-6 * nRealReps
		netP.PinMW += tech.DynamicPowerMW(buf.InCapfF, act, freq) * nRealReps
	}
	netP.NetMW = netP.WireMW + netP.PinMW
	netP.TotalMW = netP.CellMW + netP.NetMW + netP.LeakageMW
	res.ChipNetPower = netP
	res.Stats.ChipRepeaters = int(totalRepeaters)
	_ = style
	return nil
}

// aggregate fills the chip-level stats and power totals.
func (f *Flow) aggregate(res *ChipResult) {
	s := &res.Stats
	s.FootprintUm2 = res.FP.Outline.Area()
	s.FootprintMM2 = s.FootprintUm2 * f.D.Cfg.Scale / 1e6
	// Sorted iteration: float += is not associative, so summing in map
	// order would vary the totals' last bits run to run.
	names := make([]string, 0, len(res.Blocks))
	for name := range res.Blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		br := res.Blocks[name]
		s.WirelengthUm += br.Stats.Wirelength
		s.NumCells += br.Stats.NumCells
		s.NumBuffers += br.Stats.NumBuffers
		rvt, hvt := netlist.CountVth(br.Block)
		_ = rvt
		s.NumHVT += hvt
		s.ViasIntraDrawn += br.Stats.NumTSV + br.Stats.NumF2F
		res.Power.Add(br.Power)
	}
	for i := range res.ChipNets {
		s.WirelengthUm += res.ChipNets[i].RouteLen
	}
	s.NumCells += s.ChipRepeaters
	s.NumBuffers += s.ChipRepeaters
	s.TSVInter = res.FP.NumTSV()
	s.ViasPaperEquiv = s.TSVInter + int(float64(s.ViasIntraDrawn)*f.D.PortScale())
	// Physical wirelength: drawn length x sqrt(scale), in meters.
	s.WirelengthM = s.WirelengthUm * f.D.Scale.LinearShrink() * 1e-6
	res.Power.Add(res.ChipNetPower)
}
