package exp

import (
	"context"
	"fmt"
	"strings"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/flow"
	"fold3d/internal/layout"
	"fold3d/internal/netlist"
	"fold3d/internal/route"
	"fold3d/internal/t2"
)

// Figure2Result is the CCX folding study (paper Figure 2 plus the TSV-count
// sweep in §4.3's text).
type Figure2Result struct {
	Natural *FoldCompare
	// Sweep entries increase the TSV count (the paper sweeps up to 6,393
	// physical TSVs; drawn counts scale per DESIGN.md §6).
	Sweep []SweepPoint
	// SVG2D and SVG3D render the layouts like the paper's Figure 2 shots.
	SVG2D, SVG3D string
}

// SweepPoint is one partition of a via-count sweep.
type SweepPoint struct {
	Vias     int
	PowerMW  float64
	PowerPct float64 // vs the 2D baseline
	FootUm2  float64
}

// Figure2 folds the CCX naturally (PCX on one die, CPX on the other; only
// the few cross signals need TSVs) and then sweeps forced partitions with
// more 3D connections, reproducing the degradation from TSV area overhead.
func Figure2(ctx context.Context, cfg Config) (*Figure2Result, error) {
	natFo := core.FoldOptions{
		Mode:     core.FoldNatural,
		GroupDie: map[string]int{"pcx": 0, "cpx": 1},
		Seed:     cfg.Seed + 11,
	}
	nat, err := foldBlock(ctx, cfg, "CCX", extract.F2B, natFo)
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{
		Natural: nat,
		SVG2D:   layout.RenderBlockSVG(nat.R2D.Block, netlist.DieBottom),
		SVG3D:   layout.RenderBlockSVG(nat.R3D.Block, netlist.DieBottom),
	}
	base := nat.R2D.Power.TotalMW
	res.Sweep = append(res.Sweep, SweepPoint{
		Vias:     nat.R3D.Stats.NumTSV,
		PowerMW:  nat.R3D.Power.TotalMW,
		PowerPct: pct(nat.R3D.Power.TotalMW, base),
		FootUm2:  nat.R3D.Stats.Footprint,
	})
	for _, target := range []int{15, 30, 60, 100} {
		fo := natFo
		fo.InflateCutTo = target
		fc, err := foldBlock(ctx, cfg, "CCX", extract.F2B, fo)
		if err != nil {
			return nil, err
		}
		res.Sweep = append(res.Sweep, SweepPoint{
			Vias:     fc.R3D.Stats.NumTSV,
			PowerMW:  fc.R3D.Power.TotalMW,
			PowerPct: pct(fc.R3D.Power.TotalMW, base),
			FootUm2:  fc.R3D.Stats.Footprint,
		})
	}
	return res, nil
}

// String renders the CCX 2D-versus-3D comparison report.
func (r *Figure2Result) String() string {
	var sb strings.Builder
	sb.WriteString("== Figure 2: folding the CCX (PCX/CPX natural split) ==\n")
	sb.WriteString(r.Natural.String() + "\n")
	sb.WriteString("paper: -54.6% footprint, -28.8% WL, -62.5% buffers, -32.8% power at 4 TSVs\n")
	sb.WriteString("TSV-count sweep (paper: benefit degrades to -23.4% at 6,393 TSVs):\n")
	for _, p := range r.Sweep {
		fmt.Fprintf(&sb, "  #TSV %4d: power %8.1f mW (%+.1f%% vs 2D), footprint %.0f um2\n",
			p.Vias, p.PowerMW, p.PowerPct, p.FootUm2)
	}
	return sb.String()
}

// Figure3Result is the SPC second-level folding study. The paper's baseline
// ("a block-level 3D design of the SPC") is the core implemented WITHOUT
// splitting — the same netlist and constraints as the 2D core — so the
// second-level deltas here are against the unfolded implementation. The
// whole-core min-cut fold (which the paper's tools could not attempt at this
// size) is reported as an extra reference point.
type Figure3Result struct {
	// SecondLevel folds the six large FUBs individually (paper Figure 3);
	// its percent fields compare against the unfolded SPC.
	SecondLevel *FoldCompare
	// WholeFold is the whole-core min-cut fold, an idealized reference.
	WholeFold *FoldCompare
}

// Figure3 folds one SPARC core FUB-by-FUB (second-level folding) and
// compares against the unfolded core; the paper reports -9.2% wirelength,
// -10.8% buffers and -5.1% power vs the unfolded ("block-level") 3D SPC and
// -21.2% power vs the 2D SPC.
func Figure3(ctx context.Context, cfg Config) (*Figure3Result, error) {
	var foldGroups []string
	for _, g := range t2.SPCFUBs() {
		if g.Fold {
			foldGroups = append(foldGroups, g.Name)
		}
	}
	slFo := core.FoldOptions{
		Mode:       core.FoldSecondLevel,
		FoldGroups: foldGroups,
		Seed:       cfg.Seed + 13,
	}
	sl, err := foldBlock(ctx, cfg, "SPC0", extract.F2F, slFo)
	if err != nil {
		return nil, err
	}
	blockFo := core.DefaultFoldOptions()
	blockFo.Seed = cfg.Seed + 13
	wf, err := foldBlock(ctx, cfg, "SPC0", extract.F2F, blockFo)
	if err != nil {
		return nil, err
	}
	return &Figure3Result{SecondLevel: sl, WholeFold: wf}, nil
}

// String renders the wirelength-distribution report.
func (r *Figure3Result) String() string {
	var sb strings.Builder
	sb.WriteString("== Figure 3: second-level folding of a SPARC core ==\n")
	fmt.Fprintf(&sb, "second-level fold vs unfolded SPC: %s\n", r.SecondLevel)
	fmt.Fprintf(&sb, "whole-core min-cut fold (reference): %s\n", r.WholeFold)
	sb.WriteString("paper: -9.2% WL, -10.8% buffers, -5.1% power vs the unfolded 3D SPC; -21.2% power vs 2D\n")
	return sb.String()
}

// Figure5Result is the F2F via placement flow study (paper §5.1, Figures
// 4-5): the routed-3D-nets via placer versus the naive midpoint baseline.
type Figure5Result struct {
	Block string
	// Routed flow (the paper's method).
	RoutedVias     int
	RoutedMaxPile  int
	RoutedOverflow int
	// Midpoint baseline.
	MidpointVias    int
	MidpointMaxPile int
	SVG             string
}

// Figure5 runs the F2F via placer on a folded L2T and contrasts it with the
// midpoint baseline (the ablation the paper's §5.1 motivates: placement-
// style algorithms are not adequate for F2F vias).
func Figure5(ctx context.Context, cfg Config) (*Figure5Result, error) {
	d, _, err := blockWithPorts(cfg, "L2T0")
	if err != nil {
		return nil, err
	}
	b := d.Blocks["L2T0"]
	fo := core.DefaultFoldOptions()
	fo.Seed = cfg.Seed + 17

	fcfg := cfg.flowCfg()
	fcfg.Bond = extract.F2F
	fl := flow.New(d, fcfg)
	b3 := b.Clone()
	if _, _, err := fl.FoldAndImplementContext(ctx, b3, fo, d.Specs["L2T0"].Aspect); err != nil {
		return nil, err
	}
	// Re-run the router on the final placement for its congestion stats.
	grid, err := route.PlaceF2FVias(b3, route.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{
		Block:          "L2T0",
		RoutedVias:     b3.NumF2F,
		RoutedMaxPile:  grid.MaxViaDensity(),
		RoutedOverflow: grid.Overflow(),
		SVG:            layout.RenderBlockSVG(b3, netlist.DieBottom),
	}
	bm := b3.Clone()
	maxPile, err := route.PlaceViasMidpoint(bm, route.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res.MidpointVias = bm.NumF2F
	res.MidpointMaxPile = maxPile
	return res, nil
}

// String renders the L2T folding report.
func (r *Figure5Result) String() string {
	return fmt.Sprintf(`== Figure 5: F2F via placement by 3D net routing (%s) ==
routed flow:      %d vias, max pile-up %d per gcell, overflow %d
midpoint baseline: %d vias, max pile-up %d per gcell
paper: routing the 3D nets spreads the vias legally; a placement-style
approach cannot exploit that F2F vias may sit over cells and macros`,
		r.Block, r.RoutedVias, r.RoutedMaxPile, r.RoutedOverflow,
		r.MidpointVias, r.MidpointMaxPile)
}

// Figure6Result compares bonding styles on folded blocks (paper Figure 6):
// F2F shrinks the footprint further because vias consume no silicon, and on
// macro-dominated blocks the vias sit over the memories while TSVs are
// ousted.
type Figure6Result struct {
	Rows []Figure6Row
}

// Figure6Row is one block's F2B-vs-F2F comparison.
type Figure6Row struct {
	Block        string
	F2B, F2F     *FoldCompare
	FootprintPct float64 // F2F vs F2B
	WirelenPct   float64
	PowerPct     float64
	SVGF2B       string
	SVGF2F       string
}

// Figure6 folds L2T (logic+macros) and L2D (macro-dominated) in both bonding
// styles.
func Figure6(ctx context.Context, cfg Config) (*Figure6Result, error) {
	res := &Figure6Result{}
	for _, name := range []string{"L2T0", "L2D0"} {
		fo := core.DefaultFoldOptions()
		fo.Seed = cfg.Seed + 19
		fb, err := foldBlock(ctx, cfg, name, extract.F2B, fo)
		if err != nil {
			return nil, err
		}
		ff, err := foldBlock(ctx, cfg, name, extract.F2F, fo)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Figure6Row{
			Block:        name,
			F2B:          fb,
			F2F:          ff,
			FootprintPct: pct(ff.R3D.Stats.Footprint, fb.R3D.Stats.Footprint),
			WirelenPct:   pct(ff.R3D.Stats.Wirelength, fb.R3D.Stats.Wirelength),
			PowerPct:     pct(ff.R3D.Power.TotalMW, fb.R3D.Power.TotalMW),
			SVGF2B:       layout.RenderBlockSVG(fb.R3D.Block, netlist.DieBottom),
			SVGF2F:       layout.RenderBlockSVG(ff.R3D.Block, netlist.DieBottom),
		})
	}
	return res, nil
}

// String renders the per-block bonding-style comparison report.
func (r *Figure6Result) String() string {
	var sb strings.Builder
	sb.WriteString("== Figure 6: bonding style impact on folded blocks ==\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%s: F2F vs F2B footprint %+.1f%%, WL %+.1f%%, power %+.1f%% (TSVs %d vs F2F vias %d)\n",
			row.Block, row.FootprintPct, row.WirelenPct, row.PowerPct,
			row.F2B.R3D.Stats.NumTSV, row.F2F.R3D.Stats.NumF2F)
	}
	sb.WriteString("paper: F2F shrinks the folded L2T footprint 2.6% and L2D 6.3% further;\n")
	sb.WriteString("paper: same-partition folded L2T with F2F: -11.1% WL, -4.1% power vs F2B\n")
	return sb.String()
}

// Figure7Point is one partition case of the bonding-style power sweep.
type Figure7Point struct {
	Partition int
	Vias      int
	F2BPowerN float64 // normalized to the 2D design
	F2FPowerN float64
}

// Figure7Result is the L2T partition sweep under both bonding styles.
type Figure7Result struct {
	Points []Figure7Point
	// F2FWinsAll reports whether F2F beat F2B in every partition (the
	// paper's first observation).
	F2FWinsAll bool
	// MaxGainPct is the largest F2F-vs-F2B power gain (paper: -16.2% at the
	// densest partition).
	MaxGainPct float64
}

// Figure7 implements five L2T partitions with increasing 3D connection
// counts in both bonding styles and reports power normalized to 2D.
func Figure7(ctx context.Context, cfg Config) (*Figure7Result, error) {
	d, fl, err := blockWithPorts(cfg, "L2T0")
	if err != nil {
		return nil, err
	}
	b := d.Blocks["L2T0"]
	aspect := d.Specs["L2T0"].Aspect
	b2 := b.Clone()
	r2, err := fl.ImplementBlockContext(ctx, b2, aspect)
	if err != nil {
		return nil, err
	}
	base := r2.Power.TotalMW

	res := &Figure7Result{F2FWinsAll: true}
	targets := []int{0, 40, 70, 110, 160} // 0 = plain min-cut
	for i, target := range targets {
		fo := core.DefaultFoldOptions()
		fo.Seed = cfg.Seed + 23
		fo.InflateCutTo = target
		pt := Figure7Point{Partition: i + 1}
		for _, bond := range []extract.Bonding{extract.F2B, extract.F2F} {
			fcfg := cfg.flowCfg()
			fcfg.Bond = bond
			fl3 := flow.New(d, fcfg)
			b3 := b.Clone()
			r3, _, err := fl3.FoldAndImplementContext(ctx, b3, fo, aspect)
			if err != nil {
				return nil, fmt.Errorf("exp: figure7 partition %d %s: %w", i+1, bond, err)
			}
			norm := r3.Power.TotalMW / base
			if bond == extract.F2B {
				pt.F2BPowerN = norm
				pt.Vias = r3.Stats.NumTSV
			} else {
				pt.F2FPowerN = norm
				if r3.Stats.NumF2F > pt.Vias {
					pt.Vias = r3.Stats.NumF2F
				}
			}
		}
		if pt.F2FPowerN > pt.F2BPowerN {
			res.F2FWinsAll = false
		}
		gain := 100 * (pt.F2FPowerN/pt.F2BPowerN - 1)
		if gain < res.MaxGainPct {
			res.MaxGainPct = gain
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// String renders the power-breakdown report.
func (r *Figure7Result) String() string {
	var sb strings.Builder
	sb.WriteString("== Figure 7: bonding style impact vs partition (L2T folding) ==\n")
	sb.WriteString("partition  #vias  F2B power (norm to 2D)  F2F power (norm)\n")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "   #%d      %4d        %6.3f               %6.3f\n",
			p.Partition, p.Vias, p.F2BPowerN, p.F2FPowerN)
	}
	fmt.Fprintf(&sb, "F2F wins in every partition: %v; max F2F-vs-F2B gain %.1f%%\n", r.F2FWinsAll, r.MaxGainPct)
	sb.WriteString("paper: F2F wins everywhere; partition #5 gains -16.2% over F2B\n")
	return sb.String()
}

// Figure8Result renders the five full-chip design styles.
type Figure8Result struct {
	Styles    []t2.Style
	Summaries []string
	SVGs      map[string]string // "<style>-die0", "<style>-die1"
}

// Figure8 builds all five styles and renders their layouts with the counts
// the paper prints (footprint, via counts).
func Figure8(ctx context.Context, cfg Config) (*Figure8Result, error) {
	res := &Figure8Result{SVGs: map[string]string{}}
	for _, st := range []t2.Style{t2.Style2D, t2.StyleCoreCache, t2.StyleCoreCore, t2.StyleFoldF2B, t2.StyleFoldF2F} {
		r, err := cfg.chip(ctx, cfg.variant(st))
		if err != nil {
			return nil, fmt.Errorf("exp: figure8 %s: %w", st, err)
		}
		res.Styles = append(res.Styles, st)
		res.Summaries = append(res.Summaries, fmt.Sprintf("%s: %s; %.1f mm2, %d inter-TSVs, %d intra vias (paper-eq %d)",
			st, layout.ChipSummary(r.FP), r.Stats.FootprintMM2, r.Stats.TSVInter,
			r.Stats.ViasIntraDrawn, r.Stats.ViasPaperEquiv))
		res.SVGs[fmt.Sprintf("%s-die0", st)] = layout.RenderChipSVG(r.FP, netlist.DieBottom, r.ChipNets)
		if st.Is3D() {
			res.SVGs[fmt.Sprintf("%s-die1", st)] = layout.RenderChipSVG(r.FP, netlist.DieTop, r.ChipNets)
		}
	}
	return res, nil
}

// String renders the chip-level design-style comparison report.
func (r *Figure8Result) String() string {
	var sb strings.Builder
	sb.WriteString("== Figure 8: GDSII layouts of the five design styles ==\n")
	for _, s := range r.Summaries {
		sb.WriteString(s + "\n")
	}
	return sb.String()
}
