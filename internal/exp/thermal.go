package exp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/flow"
	"fold3d/internal/geom"
	"fold3d/internal/t2"
	"fold3d/internal/tech"
	"fold3d/internal/thermal"
)

// DefaultChipThermalViaBudget bounds the chip-level thermal vias the study
// inserts per F2B-bonded style when Config.Thermal.ViaBudget is zero. The
// chip budget is larger than the per-block flow budget because one study
// pass covers the whole eight-core floorplan.
const DefaultChipThermalViaBudget = 200

// defaultTempWeightPerC is the hotspot-aware-selection weight the study
// demonstrates with when Config.Thermal.TempWeightPerC is zero: +2% on the
// required power portion per °C above ambient.
const defaultTempWeightPerC = 0.02

// ThermalRow is one design style's thermal outcome, before and after
// chip-level thermal-via insertion.
type ThermalRow struct {
	Style      t2.Style
	Bond       extract.Bonding
	PowerW     float64
	TMaxC      float64
	TAvgC      float64
	TMaxPerDie [2]float64
	// ViasAdded is the number of thermal vias the greedy hotspot pass
	// inserted; zero for 2D and for the F2F fold (its full-face metal bond
	// already couples the tiers, so dummy TSVs have nothing to add).
	ViasAdded int
	// TMaxViasC / TAvgViasC are the field summary after via insertion; they
	// repeat TMaxC / TAvgC when ViasAdded is zero.
	TMaxViasC float64
	TAvgViasC float64
	// Melts reports TMaxViasC above the temperature budget; always false
	// when no budget is configured.
	Melts bool
}

// ThermalSelRow is one block of the hotspot-aware folding-selection demo:
// the 2D chip's predicted block temperature raises the folding bar for hot
// blocks (core.Criteria.TempWeightPerC).
type ThermalSelRow struct {
	Block         string
	PeakTempC     float64
	PowerPct      float64
	MinPortionPct float64
	Selected      bool
	// SelectedCold is the temperature-blind verdict; a true->false change
	// means the thermal weight vetoed the fold.
	SelectedCold bool
}

// ThermalResult is the thermal study: temperature across the five design
// styles under their bonding styles, thermal-via mitigation, an optional
// "will it melt" verdict, and the hotspot-aware selection demo.
type ThermalResult struct {
	Rows []ThermalRow
	// TMaxBudgetC echoes the configured budget (0 = no melt verdict).
	TMaxBudgetC float64
	// TempWeightPerC is the selection weight the demo used.
	TempWeightPerC float64
	Sel            []ThermalSelRow
}

// ThermalStudy builds all five design styles and solves each one's
// steady-state temperature field with the multigrid engine. The expected
// story: stacking concentrates the same power in half the footprint, so
// every 3D style runs hotter than 2D despite burning less power; vertical
// coupling decides the rest — the F2F fold's full-face metal bond beats the
// F2B styles' adhesive bond with sparse TSVs. For the F2B-bonded stacks the
// study then inserts dummy-TSV thermal vias greedily at the hottest tiles
// (folding each pad's conductance into the operator and re-solving
// incrementally) to show how far thermal TSVs close that gap.
func ThermalStudy(ctx context.Context, cfg Config) (*ThermalResult, error) {
	params := cfg.Thermal.Params
	if params == (thermal.Params{}) {
		params = thermal.DefaultParams()
	}
	viaBudget := cfg.Thermal.ViaBudget
	if viaBudget == 0 {
		viaBudget = DefaultChipThermalViaBudget
	}
	weight := cfg.Thermal.TempWeightPerC
	if weight == 0 {
		weight = defaultTempWeightPerC
	}
	res := &ThermalResult{TMaxBudgetC: cfg.Thermal.TMaxBudgetC, TempWeightPerC: weight}

	sm, err := tech.NewScaleModel(cfg.t2cfg().Scale)
	if err != nil {
		return nil, err
	}
	eng := thermal.NewEngine()
	styles := []t2.Style{t2.Style2D, t2.StyleCoreCache, t2.StyleCoreCore, t2.StyleFoldF2B, t2.StyleFoldF2F}
	for _, st := range styles {
		r, err := cfg.chip(ctx, cfg.variant(st))
		if err != nil {
			return nil, fmt.Errorf("exp: thermal %s: %w", st, err)
		}
		// Tile order feeds the solver's float accumulation; iterate block
		// names sorted so the temperature field is bit-reproducible.
		names := make([]string, 0, len(r.Blocks))
		for name := range r.Blocks {
			names = append(names, name)
		}
		sort.Strings(names)
		var tiles []thermal.ChipPowerTile
		for _, name := range names {
			p, err := r.FP.Find(name)
			if err != nil {
				return nil, err
			}
			tiles = append(tiles, thermal.ChipPowerTile{
				Rect:    p.Rect,
				Die:     p.Die,
				Both:    p.Both,
				PowerMW: r.Blocks[name].Power.TotalMW,
			})
		}
		dies := 1
		if st.Is3D() {
			dies = 2
		}
		bond := extract.F2B
		if st == t2.StyleFoldF2F {
			bond = extract.F2F
		}
		grid, err := eng.LoadChip(r.FP.Outline, tiles, dies, bond, r.Stats.ViasPaperEquiv, sm, params)
		if err != nil {
			return nil, err
		}
		tr, err := eng.Solve()
		if err != nil {
			return nil, err
		}
		row := ThermalRow{
			Style:      st,
			Bond:       bond,
			PowerW:     r.Power.TotalMW / 1e3,
			TMaxC:      tr.TMaxC,
			TAvgC:      tr.TAvgC,
			TMaxPerDie: tr.TMaxPerDie,
			TMaxViasC:  tr.TMaxC,
			TAvgViasC:  tr.TAvgC,
		}
		// Thermal vias only help the F2B-bonded stacks: a dummy TSV adds a
		// copper path through the adhesive bond, while the F2F fold's
		// full-face bond already couples the tiers and 2D has no second die.
		if dies == 2 && bond == extract.F2B {
			dk := params.KTSVWPerK * math.Sqrt(sm.Scale)
			for row.ViasAdded < viaBudget {
				if cfg.Thermal.TMaxBudgetC > 0 && tr.TMaxC <= cfg.Thermal.TMaxBudgetC {
					break
				}
				_, ix, iy, _ := eng.PeakTile()
				eng.AddVertKAt(ix, iy, dk)
				row.ViasAdded++
				if tr, err = eng.Resolve(); err != nil {
					return nil, err
				}
			}
			row.TMaxViasC = tr.TMaxC
			row.TAvgViasC = tr.TAvgC
		}
		if cfg.Thermal.TMaxBudgetC > 0 {
			row.Melts = row.TMaxViasC > cfg.Thermal.TMaxBudgetC
		}
		res.Rows = append(res.Rows, row)

		// The 2D chip run doubles as the hotspot-aware selection demo: the
		// predicted per-block peak temperature re-weights the §4.1 folding
		// criteria before any 3D commitment is made.
		if st == t2.Style2D {
			res.Sel = selectionDemo(r, names, grid, tr, params, weight)
		}
	}
	return res, nil
}

// selectionDemo scores every block of the 2D chip with and without the
// temperature weight. Block peak temperatures come from the solved chip
// field: the hottest tile overlapping the block's floorplan rect.
func selectionDemo(r *flow.ChipResult, names []string, grid *geom.Grid, tr *thermal.Result,
	params thermal.Params, weight float64) []ThermalSelRow {
	peak := func(rect geom.Rect) float64 {
		t := params.AmbientC
		grid.OverlapBins(rect, func(ix, iy int, _ float64) {
			for d := 0; d < tr.Dies; d++ {
				if v := tr.MapC[d][iy*tr.NX+ix]; v > t {
					t = v
				}
			}
		})
		return t
	}
	var profiles []core.BlockProfile
	var system float64
	for _, name := range names {
		br := r.Blocks[name]
		p, err := r.FP.Find(name)
		if err != nil {
			continue
		}
		profiles = append(profiles, core.BlockProfile{
			Name:         name,
			Copies:       1,
			TotalPowerMW: br.Power.TotalMW,
			NetPowerMW:   br.Power.NetMW,
			LongWires:    br.Stats.NumLongWire,
			PeakTempC:    peak(p.Rect),
		})
		system += br.Power.TotalMW
	}
	crit := core.DefaultCriteria()
	crit.TempWeightPerC = weight
	crit.TRefC = params.AmbientC
	hot := core.Score(profiles, system, crit)
	crit.TempWeightPerC = 0
	cold := core.Score(profiles, system, crit)
	coldSel := make(map[string]bool, len(cold))
	for _, s := range cold {
		coldSel[s.Profile.Name] = s.Selected()
	}
	rows := make([]ThermalSelRow, 0, len(hot))
	for _, s := range hot {
		rows = append(rows, ThermalSelRow{
			Block:         s.Profile.Name,
			PeakTempC:     s.Profile.PeakTempC,
			PowerPct:      100 * s.TotalPowerPortion,
			MinPortionPct: 100 * s.MinPortionUsed,
			Selected:      s.Selected(),
			SelectedCold:  coldSel[s.Profile.Name],
		})
	}
	return rows
}

// String renders the thermal study rows, the melt verdict when a budget is
// set, and the hotspot-aware selection demo.
func (r *ThermalResult) String() string {
	var sb strings.Builder
	sb.WriteString("== Thermal study (paper §7 future work): styles, bonding, thermal vias ==\n")
	sb.WriteString("style        bond  power W   Tmax C   Tavg C   Tmax bot/top    vias  Tmax+vias\n")
	for _, row := range r.Rows {
		bond := "-"
		if row.Style.Is3D() {
			bond = row.Bond.String()
		}
		via := "      -"
		if row.ViasAdded > 0 {
			via = fmt.Sprintf("%7.2f", row.TMaxViasC)
		}
		fmt.Fprintf(&sb, "%-11s %-5s %7.2f %8.2f %8.2f   %6.1f / %-6.1f %5d %s\n",
			row.Style, bond, row.PowerW, row.TMaxC, row.TAvgC,
			row.TMaxPerDie[0], row.TMaxPerDie[1], row.ViasAdded, via)
	}
	if r.TMaxBudgetC > 0 {
		fmt.Fprintf(&sb, "budget: Tmax <= %.1f C after thermal vias\n", r.TMaxBudgetC)
		for _, row := range r.Rows {
			verdict := "ok"
			if row.Melts {
				verdict = "MELTS (over budget)"
			}
			fmt.Fprintf(&sb, "  %-11s %7.2f C  %s\n", row.Style, row.TMaxViasC, verdict)
		}
	}
	if len(r.Sel) > 0 {
		fmt.Fprintf(&sb, "hotspot-aware folding selection (weight %.3g/C over ambient, 2D chip field):\n", r.TempWeightPerC)
		sb.WriteString("  block     peak C  power%  need%   fold?  (temp-blind)\n")
		for _, s := range r.Sel {
			fmt.Fprintf(&sb, "  %-8s %7.1f %6.2f%% %6.2f%%  %-5v  (%v)\n",
				s.Block, s.PeakTempC, s.PowerPct, s.MinPortionPct, s.Selected, s.SelectedCold)
		}
	}
	sb.WriteString("expected: every stack runs hotter than 2D at lower power (double power density);\n")
	sb.WriteString("the F2F fold's full-face metal bond couples the tiers to the sink better than\n")
	sb.WriteString("the F2B adhesive bond, and thermal vias claw back part of the F2B penalty\n")
	return sb.String()
}
