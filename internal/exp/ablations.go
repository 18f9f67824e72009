package exp

import (
	"context"
	"fmt"
	"strings"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/flow"
	"fold3d/internal/place"
	"fold3d/internal/t2"
)

// MacroModeResult is the §4.2 ablation: hard macros as supply/demand holes
// (the paper's method) versus demand-reduction (the Kraftwerk2-style tactic
// the paper found insufficient for very large macros).
type MacroModeResult struct {
	Block string
	// Legalization displacement: demand-reduction leaves cells on macros
	// that legalization must evict far away (halos).
	HoleDispUm, DemandDispUm float64
	HoleWLUm, DemandWLUm     float64
	HolePowerMW, DemandPower float64
}

// AblationMacroMode places the macro-dominated L2D with both macro policies.
func AblationMacroMode(ctx context.Context, cfg Config) (*MacroModeResult, error) {
	res := &MacroModeResult{Block: "L2D0"}
	for _, mode := range []place.MacroMode{place.MacroHoles, place.MacroDemand} {
		d, _, err := blockWithPorts(cfg, "L2D0")
		if err != nil {
			return nil, err
		}
		fcfg := cfg.flowCfg()
		fcfg.Place.Macro = mode
		fl := flow.New(d, fcfg)
		b := d.Blocks["L2D0"].Clone()
		r, err := fl.ImplementBlockContext(ctx, b, d.Specs["L2D0"].Aspect)
		if err != nil {
			return nil, fmt.Errorf("exp: macro mode %d: %w", mode, err)
		}
		// The placer is internal to the flow; re-legalize to measure the
		// displacement a fresh legalization would need from the global
		// positions (proxy for halo pressure).
		p := place.New(fcfg.Place)
		if err := p.LegalizeAll(b); err != nil {
			return nil, err
		}
		disp := p.LastLegal().TotalDisp
		if mode == place.MacroHoles {
			res.HoleDispUm = disp
			res.HoleWLUm = r.Stats.Wirelength
			res.HolePowerMW = r.Power.TotalMW
		} else {
			res.DemandDispUm = disp
			res.DemandWLUm = r.Stats.Wirelength
			res.DemandPower = r.Power.TotalMW
		}
	}
	return res, nil
}

// String renders the macro-handling ablation report.
func (r *MacroModeResult) String() string {
	return fmt.Sprintf(`== Ablation: macro holes vs demand-reduction in the 3D placer (%s) ==
supply/demand holes (paper): legalization displacement %8.1f um, WL %8.1f um, power %8.1f mW
demand-reduction  (Kraftwerk2-style): displacement %8.1f um, WL %8.1f um, power %8.1f mW
paper: demand-reduction still leaves whitespace halos around very large macros`,
		r.Block, r.HoleDispUm, r.HoleWLUm, r.HolePowerMW,
		r.DemandDispUm, r.DemandWLUm, r.DemandPower)
}

// CriteriaAblationResult folds a block that fails the §4.1 criteria (the
// macro-dominated, low-net-power L2B) and contrasts its saving with a block
// that passes (CCX), demonstrating why the selection criteria matter.
type CriteriaAblationResult struct {
	FailingBlock  string
	FailingGain   float64 // power % vs 2D (negative = saving)
	PassingBlock  string
	PassingGain   float64
	CriteriaAgree bool
}

// AblationFoldingCriteria quantifies the value of the folding criteria.
func AblationFoldingCriteria(ctx context.Context, cfg Config) (*CriteriaAblationResult, error) {
	fo := core.DefaultFoldOptions()
	fo.Seed = cfg.Seed + 29
	fail, err := foldBlock(ctx, cfg, "L2B0", extract.F2F, fo)
	if err != nil {
		return nil, err
	}
	pass, err := foldBlock(ctx, cfg, "CCX", extract.F2F, core.FoldOptions{
		Mode:     core.FoldNatural,
		GroupDie: map[string]int{"pcx": 0, "cpx": 1},
		Seed:     cfg.Seed + 29,
	})
	if err != nil {
		return nil, err
	}
	return &CriteriaAblationResult{
		FailingBlock:  "L2B0",
		FailingGain:   fail.PowerPct,
		PassingBlock:  "CCX",
		PassingGain:   pass.PowerPct,
		CriteriaAgree: pass.PowerPct < fail.PowerPct,
	}, nil
}

// String renders the folding-criteria ablation report.
func (r *CriteriaAblationResult) String() string {
	return fmt.Sprintf(`== Ablation: folding criteria (fold a rejected block anyway) ==
%s (fails criteria): power %+.1f%% vs 2D when folded
%s (passes criteria): power %+.1f%% vs 2D when folded
criteria ranking confirmed: %v`,
		r.FailingBlock, r.FailingGain, r.PassingBlock, r.PassingGain, r.CriteriaAgree)
}

// DualVthResult is the §6.2 study: RVT-only versus dual-Vth per design
// style.
type DualVthResult struct {
	Rows []DualVthRow
}

// DualVthRow is one style's RVT/DVT comparison.
type DualVthRow struct {
	Style     t2.Style
	RVTPowerW float64
	DVTPowerW float64
	SavingPct float64
	HVTPct    float64
}

// AblationDualVth measures the dual-Vth saving on the 2D chip and the
// folded-F2F chip (paper: 9.5% and 11.4% — 3D benefits more because its
// extra slack converts to more HVT cells).
func AblationDualVth(ctx context.Context, cfg Config) (*DualVthResult, error) {
	res := &DualVthResult{}
	for _, st := range []t2.Style{t2.Style2D, t2.StyleFoldF2F} {
		row := DualVthRow{Style: st}
		for _, hvt := range []bool{false, true} {
			v := cfg.variant(st)
			v.UseHVT = hvt
			r, err := cfg.chip(ctx, v)
			if err != nil {
				return nil, fmt.Errorf("exp: dualvth %s: %w", st, err)
			}
			if hvt {
				row.DVTPowerW = r.Power.TotalMW / 1e3
				row.HVTPct = 100 * float64(r.Stats.NumHVT) / float64(r.Stats.NumCells)
			} else {
				row.RVTPowerW = r.Power.TotalMW / 1e3
			}
		}
		row.SavingPct = pct(row.DVTPowerW, row.RVTPowerW)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the dual-Vth ablation report.
func (r *DualVthResult) String() string {
	var sb strings.Builder
	sb.WriteString("== Dual-Vth ablation (paper §6.2) ==\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s RVT %6.2f W -> DVT %6.2f W (%+.1f%%), HVT cells %.1f%%\n",
			row.Style, row.RVTPowerW, row.DVTPowerW, row.SavingPct, row.HVTPct)
	}
	sb.WriteString("paper: DVT saves 9.5% on 2D and 11.4% on the folded 3D design\n")
	return sb.String()
}

// TSVCouplingResult is the §7 future-work parasitics study: the power cost
// of TSV-to-wire coupling capacitance on a TSV-dense folded block.
type TSVCouplingResult struct {
	Block    string
	PowerMW  [2]float64 // without, with coupling
	PowerPct float64    // with vs without
	TSVs     int
}

// AblationTSVCoupling folds the L2T with a dense partition under F2B and
// measures the extra power once each wire near a TSV body pays its sidewall
// coupling.
func AblationTSVCoupling(ctx context.Context, cfg Config) (*TSVCouplingResult, error) {
	res := &TSVCouplingResult{Block: "L2T0"}
	for i, coupling := range []bool{false, true} {
		d, _, err := blockWithPorts(cfg, "L2T0")
		if err != nil {
			return nil, err
		}
		fcfg := cfg.flowCfg()
		fcfg.Bond = extract.F2B
		fcfg.TSVCoupling = coupling
		fl := flow.New(d, fcfg)
		b := d.Blocks["L2T0"].Clone()
		fo := core.DefaultFoldOptions()
		fo.Seed = cfg.Seed + 31
		fo.InflateCutTo = 60
		r, _, err := fl.FoldAndImplementContext(ctx, b, fo, d.Specs["L2T0"].Aspect)
		if err != nil {
			return nil, err
		}
		res.PowerMW[i] = r.Power.TotalMW
		res.TSVs = b.NumTSV
	}
	res.PowerPct = pct(res.PowerMW[1], res.PowerMW[0])
	return res, nil
}

// String renders the TSV-coupling ablation report.
func (r *TSVCouplingResult) String() string {
	return fmt.Sprintf(`== Ablation: TSV-to-wire coupling capacitance (paper §7 future work) ==
%s folded with %d TSVs: power %.1f mW -> %.1f mW with coupling (%+.2f%%)
the coupling penalty is one of the paper's named "sources of 3D power benefit loss"`,
		r.Block, r.TSVs, r.PowerMW[0], r.PowerMW[1], r.PowerPct)
}

// RSMTResult compares statistical wirelength estimation (HPWL with the
// empirical Steiner correction) against real rectilinear Steiner trees.
type RSMTResult struct {
	Block                  string
	StatWLUm, RSMTWLUm     float64
	WirelenPct, PowerPct   float64
	StatPowerMW, RSMTPower float64
}

// AblationRSMT implements the L2T both ways and reports the estimator gap.
func AblationRSMT(ctx context.Context, cfg Config) (*RSMTResult, error) {
	res := &RSMTResult{Block: "L2T0"}
	for _, rsmt := range []bool{false, true} {
		d, _, err := blockWithPorts(cfg, "L2T0")
		if err != nil {
			return nil, err
		}
		fcfg := cfg.flowCfg()
		fcfg.UseRSMT = rsmt
		fl := flow.New(d, fcfg)
		b := d.Blocks["L2T0"].Clone()
		r, err := fl.ImplementBlockContext(ctx, b, d.Specs["L2T0"].Aspect)
		if err != nil {
			return nil, err
		}
		if rsmt {
			res.RSMTWLUm = r.Stats.Wirelength
			res.RSMTPower = r.Power.TotalMW
		} else {
			res.StatWLUm = r.Stats.Wirelength
			res.StatPowerMW = r.Power.TotalMW
		}
	}
	res.WirelenPct = pct(res.RSMTWLUm, res.StatWLUm)
	res.PowerPct = pct(res.RSMTPower, res.StatPowerMW)
	return res, nil
}

// String renders the Steiner-tree extraction ablation report.
func (r *RSMTResult) String() string {
	return fmt.Sprintf(`== Ablation: statistical vs rectilinear-Steiner wirelength (%s) ==
statistical estimate: %8.1f um, %8.1f mW
RSMT estimate:        %8.1f um (%+.1f%%), %8.1f mW (%+.1f%%)`,
		r.Block, r.StatWLUm, r.StatPowerMW, r.RSMTWLUm, r.WirelenPct, r.RSMTPower, r.PowerPct)
}
