// Package thermal implements the steady-state thermal analysis the paper
// defers to future work ("our future work will address thermal issues in
// various 3D design styles with different bonding styles", §7): a
// resistive-network model of the two-tier stack. Each die is discretized
// into tiles; tiles couple laterally through silicon, vertically through the
// bonding interface (whose conductance depends on the bonding style and the
// TSV population — TSVs are copper and conduct heat), and to ambient through
// the heat-sink path attached to the top die's backside.
//
// The production solver is Engine: a geometric multigrid V-cycle (red-black
// Gauss-Seidel smoother, aggregation coarsening) over flat per-die arrays,
// persistent and poolable like sta.Engine, with incremental re-solve after
// localized power or TSV edits — cheap enough to sit inside the
// optimization loop and drive thermal via insertion and folding selection
// (DESIGN.md §17). The plain Gauss-Seidel oracle it is checked against, and
// the benchmark that gates its speed, live in the package's test files.
//
// The model reproduces the first-order 3D-IC thermal story: stacking doubles
// the power density, the die far from the heat sink runs hotter, and F2F
// bonding — which lacks the thermal TSVs of F2B — couples the tiers more
// weakly to the sink.
package thermal

import (
	"fmt"
	"math"

	"fold3d/internal/errs"
	"fold3d/internal/extract"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
	"fold3d/internal/tech"
)

// Params are the thermal constants of the stack. Conductances are per
// physical µm² of tile area unless stated; temperatures are °C.
type Params struct {
	// AmbientC is the reference ambient/heatsink temperature.
	AmbientC float64
	// KSinkWPerM2K is the effective heat-transfer coefficient from the top
	// die's backside through the heat spreader and sink.
	KSinkWPerM2K float64
	// KLateralWPerMK is silicon's lateral thermal conductivity.
	KLateralWPerMK float64
	// KBondBaseWPerM2K is the baseline conductance of the die-to-die bond
	// (dielectric glue for F2B, face-to-face metal bond for F2F).
	KBondBaseWPerM2K float64
	// KTSVWPerK is the additional vertical conductance contributed by one
	// TSV (copper cylinder through the bond).
	KTSVWPerK float64
	// KBoardWPerM2K is the leakage path from the bottom die through the
	// package substrate to the board.
	KBoardWPerM2K float64
	// DieThicknessUm is the silicon thickness used for lateral spreading.
	DieThicknessUm float64
}

// DefaultParams returns literature-typical constants for a thinned two-tier
// 28nm stack with a standard forced-air heat sink.
func DefaultParams() Params {
	return Params{
		AmbientC:         45,
		KSinkWPerM2K:     18000, // sink + spreader + TIM, lumped
		KLateralWPerMK:   120,   // silicon
		KBondBaseWPerM2K: 9000,  // oxide/adhesive bond
		KTSVWPerK:        2.4e-5,
		KBoardWPerM2K:    1200,
		DieThicknessUm:   50,
	}
}

// Validate checks the thermal constants before any solve. A NaN, infinite,
// or non-positive conductance (or thickness) would make the relaxation
// diverge or silently stall, so every failure is rejected up front, wrapping
// errs.ErrBadRequest and errs.ErrBadOptions and naming the field — the CLI
// maps that to exit 2 and fold3dd to HTTP 400, consistent with t2 scale
// validation.
func (p Params) Validate() error {
	// Negated range form so NaN (every comparison false) is rejected along
	// with ±Inf, zero and negatives.
	pos := func(field string, v float64) error {
		if !(v > 0 && v < math.Inf(1)) {
			return fmt.Errorf("thermal: %w: %w: %s must be positive and finite, got %g",
				errs.ErrBadRequest, errs.ErrBadOptions, field, v)
		}
		return nil
	}
	if !(p.AmbientC >= -273.15 && p.AmbientC <= 500) {
		return fmt.Errorf("thermal: %w: %w: AmbientC must be in [-273.15, 500], got %g",
			errs.ErrBadRequest, errs.ErrBadOptions, p.AmbientC)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"KSinkWPerM2K", p.KSinkWPerM2K},
		{"KLateralWPerMK", p.KLateralWPerMK},
		{"KBondBaseWPerM2K", p.KBondBaseWPerM2K},
		{"KTSVWPerK", p.KTSVWPerK},
		{"KBoardWPerM2K", p.KBoardWPerM2K},
		{"DieThicknessUm", p.DieThicknessUm},
	} {
		if err := pos(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// Result is a solved temperature field.
type Result struct {
	// TMaxC and TAvgC summarize the whole stack.
	TMaxC, TAvgC float64
	// TMaxPerDie reports each tier's hottest tile; entries past Dies-1 are
	// zero and meaningless.
	TMaxPerDie [2]float64
	// NX, NY are the tile grid dimensions; MapC[die][iy*NX+ix] is the tile
	// temperature. Dies is authoritative: for a 2D design (Dies == 1) only
	// MapC[0] is populated and MapC[1] is nil — consumers must range over
	// MapC[:Dies], never over the fixed-size array.
	NX, NY int
	MapC   [2][]float64
	// Dies is 1 for a 2D design, 2 for a stack.
	Dies int
}

// Fingerprint digests the solved field — grid shape, summary statistics and
// every tile temperature by exact bit pattern — so byte-identical solves can
// be asserted across worker counts and fleet nodes.
func (r *Result) Fingerprint() pipeline.Fingerprint {
	h := pipeline.NewHasher()
	h.Int(r.NX)
	h.Int(r.NY)
	h.Int(r.Dies)
	h.F64(r.TMaxC)
	h.F64(r.TAvgC)
	for d := 0; d < r.Dies; d++ {
		h.F64(r.TMaxPerDie[d])
		for _, v := range r.MapC[d] {
			h.F64(v)
		}
	}
	return h.Sum()
}

// summarize wraps solved per-die temperature slices (ownership transfers to
// the Result) with the max/avg statistics. Slices past dies-1 stay nil.
func summarize(t [2][]float64, nx, ny, dies int) *Result {
	res := &Result{NX: nx, NY: ny, MapC: t, Dies: dies, TMaxC: -1e18}
	var sum float64
	cnt := 0
	for d := 0; d < dies; d++ {
		res.TMaxPerDie[d] = -1e18
		for _, v := range t[d] {
			if v > res.TMaxC {
				res.TMaxC = v
			}
			if v > res.TMaxPerDie[d] {
				res.TMaxPerDie[d] = v
			}
			sum += v
			cnt++
		}
	}
	res.TAvgC = sum / float64(cnt)
	return res
}

// AnalyzeBlock solves the temperature field of one implemented block. The
// per-tile power comes from the block's cells, macros and nets at their
// placed positions (physical watts: the scale model's multiplier applies).
// bond selects the vertical-coupling model; the block's TSV pads contribute
// thermal conductance under F2B.
func AnalyzeBlock(b *netlist.Block, sm tech.ScaleModel, bond extract.Bonding, p Params) (*Result, error) {
	e := NewEngine()
	if _, err := e.LoadBlock(b, sm, bond, p); err != nil {
		return nil, err
	}
	return e.Solve()
}

// ChipPowerTile is one block's contribution to the chip-level thermal map.
type ChipPowerTile struct {
	Rect geom.Rect
	Die  netlist.Die
	// Both spreads the block's power over both dies (folded blocks).
	Both bool
	// PowerMW is the block's total power at report magnitude.
	PowerMW float64
}

// AnalyzeChip solves the chip-level temperature field from per-block power
// totals spread uniformly over each block's floorplan rectangle. outline is
// the chip outline (drawn µm); dies is 1 or 2; tsvs is the physical TSV
// population (vertical thermal paths under F2B).
func AnalyzeChip(outline geom.Rect, tiles []ChipPowerTile, dies int, bond extract.Bonding, tsvs int, sm tech.ScaleModel, p Params) (*Result, error) {
	e := NewEngine()
	if _, err := e.LoadChip(outline, tiles, dies, bond, tsvs, sm, p); err != nil {
		return nil, err
	}
	return e.Solve()
}
