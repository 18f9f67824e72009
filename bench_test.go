// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DAC 2014), plus the ablation benches DESIGN.md calls out.
// Each bench regenerates its experiment end-to-end and reports the headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. EXPERIMENTS.md records the
// paper-vs-measured comparison for every entry.
package fold3drepo

import (
	"context"
	"testing"

	"fold3d/internal/exp"
)

func cfg() exp.Config { return exp.DefaultConfig() }

// BenchmarkTable1Interconnect regenerates the 3D interconnect settings table.
func BenchmarkTable1Interconnect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table1()
		if len(t.Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable2FloorplanBenefit builds the 2D, core/cache and core/core
// chips (paper Table 2) and reports the 3D power deltas.
func BenchmarkTable2FloorplanBenefit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Table2(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		if d, ok := t.Diff("total power", 1); ok {
			b.ReportMetric(d, "corecache_power_%")
		}
		if d, ok := t.Diff("total power", 2); ok {
			b.ReportMetric(d, "corecore_power_%")
		}
		if d, ok := t.Diff("footprint", 1); ok {
			b.ReportMetric(d, "corecache_footprint_%")
		}
	}
}

// BenchmarkTable3FoldingCriteria profiles the 2D blocks and scores the §4.1
// folding criteria.
func BenchmarkTable3FoldingCriteria(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.Table3(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Block == "SPC" {
				b.ReportMetric(r.TotalPowerPct, "spc_power_%")
				b.ReportMetric(r.NetPowerPct, "spc_netpower_%")
			}
			if r.Block == "L2D" {
				b.ReportMetric(r.NetPowerPct, "l2d_netpower_%")
			}
		}
	}
}

// BenchmarkTable4FoldL2D folds the memory-dominated L2 data bank.
func BenchmarkTable4FoldL2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fc, err := exp.Table4(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fc.FootprintPct, "footprint_%")
		b.ReportMetric(fc.PowerPct, "power_%")
		b.ReportMetric(fc.BuffersPct, "buffers_%")
	}
}

// BenchmarkTable5FullChip builds the dual-Vth full-chip comparison (paper
// Table 5): 2D vs 3D without folding vs 3D with folding (F2F).
func BenchmarkTable5FullChip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Table5(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		if d, ok := t.Diff("total power", 2); ok {
			b.ReportMetric(d, "fold_f2f_power_%") // paper: -20.3%
		}
		if d, ok := t.Diff("total power", 1); ok {
			b.ReportMetric(d, "nofold_power_%") // paper: -13.7%
		}
		if v, ok := t.Get("HVT fraction"); ok {
			b.ReportMetric(v[2], "fold_hvt_%") // paper: 94.0%
		}
	}
}

// BenchmarkFigure2FoldCCX folds the crossbar naturally and sweeps forced
// partitions with more TSVs.
func BenchmarkFigure2FoldCCX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure2(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Natural.PowerPct, "natural_power_%")               // paper: -32.8%
		b.ReportMetric(float64(r.Natural.R3D.Stats.NumTSV), "tsvs")         // paper: 4
		b.ReportMetric(r.Sweep[len(r.Sweep)-1].PowerPct, "max_tsv_power_%") // paper: -23.4%
	}
}

// BenchmarkFigure3SecondLevelFold folds a SPARC core's FUBs individually.
func BenchmarkFigure3SecondLevelFold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure3(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SecondLevel.PowerPct, "vs_unfolded_power_%")   // paper: -5.1% vs unfolded 3D, -21.2% vs 2D
		b.ReportMetric(r.SecondLevel.WirelengthPct, "vs_unfolded_wl_%") // paper: -9.2%
	}
}

// BenchmarkFigure5F2FViaPlacement runs the routed F2F via placer against the
// midpoint baseline.
func BenchmarkFigure5F2FViaPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure5(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.RoutedVias), "vias")
		b.ReportMetric(float64(r.RoutedMaxPile), "routed_pile")
		b.ReportMetric(float64(r.MidpointMaxPile), "midpoint_pile")
	}
}

// BenchmarkFigure6BondingFootprint compares F2B and F2F folds of L2T/L2D.
func BenchmarkFigure6BondingFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure6(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Block == "L2T0" {
				b.ReportMetric(row.FootprintPct, "l2t_f2f_footprint_%") // paper: -2.6%
				b.ReportMetric(row.PowerPct, "l2t_f2f_power_%")         // paper: -4.1%
			}
			if row.Block == "L2D0" {
				b.ReportMetric(row.FootprintPct, "l2d_f2f_footprint_%") // paper: -6.3%
			}
		}
	}
}

// BenchmarkFigure7BondingPower sweeps L2T partitions under both bondings.
func BenchmarkFigure7BondingPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure7(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		wins := 0.0
		if r.F2FWinsAll {
			wins = 1
		}
		b.ReportMetric(wins, "f2f_wins_all")           // paper: yes
		b.ReportMetric(r.MaxGainPct, "max_f2f_gain_%") // paper: -16.2%
	}
}

// BenchmarkFigure8Layouts builds and renders all five design styles.
func BenchmarkFigure8Layouts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure8(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.SVGs)), "renders")
	}
}

// BenchmarkDualVthAblation measures the RVT->DVT saving per style (paper
// §6.2: 9.5% on 2D, 11.4% on the folded 3D design).
func BenchmarkDualVthAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationDualVth(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			switch row.Style.String() {
			case "2D":
				b.ReportMetric(row.SavingPct, "dvt_2d_%")
			case "fold-F2F":
				b.ReportMetric(row.SavingPct, "dvt_fold_%")
				b.ReportMetric(row.HVTPct, "fold_hvt_%")
			}
		}
	}
}

// BenchmarkAblationMacroHoles contrasts the paper's supply/demand holes with
// Kraftwerk2-style demand reduction.
func BenchmarkAblationMacroHoles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationMacroMode(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.HoleDispUm, "hole_disp_um")
		b.ReportMetric(r.DemandDispUm, "demand_disp_um")
	}
}

// BenchmarkAblationFoldingCriteria folds a criteria-rejected block anyway.
func BenchmarkAblationFoldingCriteria(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationFoldingCriteria(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FailingGain, "rejected_gain_%")
		b.ReportMetric(r.PassingGain, "passing_gain_%")
	}
}

// BenchmarkAblationViaPlacement isolates the routed-vs-midpoint via-placer
// comparison (paper §5.1's motivation).
func BenchmarkAblationViaPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure5(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.MidpointMaxPile-r.RoutedMaxPile), "pile_reduction")
	}
}

// BenchmarkThermalStudy runs the §7 future-work thermal comparison across
// design styles.
func BenchmarkThermalStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.ThermalStudy(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			switch row.Style.String() {
			case "2D":
				b.ReportMetric(row.TMaxC, "tmax_2d_C")
			case "fold-F2F":
				b.ReportMetric(row.TMaxC, "tmax_fold_f2f_C")
			case "fold-F2B":
				b.ReportMetric(row.TMaxC, "tmax_fold_f2b_C")
			}
		}
	}
}

// BenchmarkAblationTSVCoupling measures the §7 future-work TSV-to-wire
// coupling power penalty on a TSV-dense fold.
func BenchmarkAblationTSVCoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationTSVCoupling(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PowerPct, "coupling_power_%")
	}
}

// BenchmarkFigure4DesignFiles emits the §5.1 merged two-die design files.
func BenchmarkFigure4DesignFiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure4(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Nets3DCount), "nets3d")
		b.ReportMetric(float64(len(r.LEF)), "lef_bytes")
	}
}

// BenchmarkAblationRSMT compares statistical wirelength estimation against
// real rectilinear Steiner trees on the L2T implementation.
func BenchmarkAblationRSMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationRSMT(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WirelenPct, "rsmt_wl_%")
		b.ReportMetric(r.PowerPct, "rsmt_power_%")
	}
}
