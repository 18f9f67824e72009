// Package place implements the mixed-size (3D) placer of the paper's §4.2:
// an iterative analytical placer alternating quadratic-wirelength pulls with
// supply/demand density spreading, where hard macros are modeled as holes in
// the supply/demand map (supply = demand = 0 over the macro), which avoids
// the whitespace halos that demand-reduction schemes leave around very large
// macros. A two-die (3D) mode places folded blocks: both tiers share the XY
// plane, each object carries a die assignment, and inter-die nets pull their
// endpoints together exactly as intra-die nets do (the "ideal 3D
// interconnect" assumption under which the F2F via placer later routes).
package place

import (
	"fmt"
	"math"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/rng"
	"fold3d/internal/tech"
)

// MacroMode selects how the density map treats hard macros.
type MacroMode int

const (
	// MacroHoles zeroes both supply and demand over macros (the paper's
	// method, §4.2): cells flow around macros with no halo.
	MacroHoles MacroMode = iota
	// MacroDemand models a macro as a large placeable demand with reduced
	// weight (the Kraftwerk2-style tactic the paper found insufficient for
	// very large macros). Kept for the ablation benchmark.
	MacroDemand
)

// Options configures a placement run.
type Options struct {
	Iterations int     // global placement iterations
	TargetUtil float64 // target placement density in non-macro area
	BinCells   float64 // desired average cells per density bin
	Macro      MacroMode
	// DemandFactor is the macro demand weight under MacroDemand mode.
	DemandFactor float64
	Seed         uint64
}

// DefaultOptions returns the flow defaults.
func DefaultOptions() Options {
	return Options{
		Iterations:   36,
		TargetUtil:   0.72,
		BinCells:     24,
		Macro:        MacroHoles,
		DemandFactor: 0.8,
		Seed:         7,
	}
}

// Placer runs global placement and legalization on one block.
type Placer struct {
	opt        Options
	legalStats LegalStats

	// Scratch reused across placement passes. Contents are fully
	// rewritten on every use; sharing one Placer between goroutines is
	// not supported (the flow builds one Placer per block).
	wlX, wlY, wlW      []float64 // wirelengthPass centroid accumulators
	ctrX, ctrY         []float64 // wirelengthPass flat cell-center cache
	laneOf             []int32   // spreadPass: lane of each cell
	laneOff, laneCells []int32   // spreadPass: CSR cells-per-lane buckets
	demand, supply     []float64 // shift1D per-lane densities
	cumD, cumS         []float64 // shift1D cumulative distributions
	jlo                []int32   // shift1D per-demand-bin supply-CDF start index
	// SoA mirror of the movable cells of the die being spread, filled by
	// bucketLanes and read by shift1D so the remap loops stream over flat
	// float64 slices instead of chasing Instance/Master pointers. soaX/soaY
	// are the lower-left positions, soaHW/soaW the master half-width and
	// width, soaArea the master area. Indexed by cell index; entries of
	// cells not in the sweep are stale.
	soaX, soaY  []float64
	soaHW, soaW []float64
	soaArea     []float64
	ids         []int32 // legalize cell-order scratch
	rowsSc      rowScratch
}

// New returns a Placer with the given options.
func New(opt Options) *Placer {
	p := &Placer{}
	p.Reinit(opt)
	return p
}

// WithDefaults returns o with every unset (zero or out-of-range) tuning
// field replaced by its DefaultOptions value — the normalization New and
// Reinit apply before a run. Backends outside this package use it so their
// view of the options matches what the shared legalizer runs with.
func (o Options) WithDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = DefaultOptions().Iterations
	}
	if o.TargetUtil <= 0 || o.TargetUtil > 1 {
		o.TargetUtil = DefaultOptions().TargetUtil
	}
	if o.BinCells <= 0 {
		o.BinCells = DefaultOptions().BinCells
	}
	return o
}

// Reinit re-arms the placer for a new block: fresh options (zero fields get
// defaults, as in New) and cleared legalization stats, keeping every scratch
// buffer for capacity reuse. A reinitialized placer behaves exactly like a
// newly constructed one.
func (p *Placer) Reinit(opt Options) {
	p.opt = opt.WithDefaults()
	p.legalStats = LegalStats{}
}

// Place globally places and legalizes every movable cell of b inside its die
// outline(s). Macros and fixed cells are respected as blockages. Ports stay
// where the floorplan put them.
func (p *Placer) Place(b *netlist.Block) error {
	dies := []netlist.Die{netlist.DieBottom}
	if b.Is3D {
		dies = append(dies, netlist.DieTop)
	}
	for _, d := range dies {
		if b.Outline[d].Area() <= 0 {
			return fmt.Errorf("place: block %s has empty outline on die %s", b.Name, d)
		}
	}

	r := rng.New(p.opt.Seed)
	p.seedPositions(b, r)

	grids := make(map[netlist.Die]*densityGrid)
	for _, d := range dies {
		g, err := p.buildDensityGrid(b, d)
		if err != nil {
			return err
		}
		grids[d] = g
	}

	for it := 0; it < p.opt.Iterations; it++ {
		// Cooling: early iterations favor wirelength, later ones density.
		lambda := 0.9 - 0.5*float64(it)/float64(p.opt.Iterations)
		p.wirelengthPass(b, lambda)
		for _, d := range dies {
			p.spreadPass(b, d, grids[d])
		}
	}
	for _, d := range dies {
		if err := p.legalize(b, d); err != nil {
			return err
		}
	}
	return nil
}

// LegalizeAll re-legalizes every movable cell from its current position,
// without global placement. The flow uses it after CTS and repeater
// insertion drop new cells at ideal (overlapping) locations, and after TSV
// pads claim placement area.
func (p *Placer) LegalizeAll(b *netlist.Block) error {
	dies := []netlist.Die{netlist.DieBottom}
	if b.Is3D {
		dies = append(dies, netlist.DieTop)
	}
	for _, d := range dies {
		if err := p.legalize(b, d); err != nil {
			return err
		}
	}
	return nil
}

// seedPositions gives every movable cell an initial random position inside
// its die outline; cells that already have a nonzero position (incremental
// placement after optimization inserted buffers) keep it.
func (p *Placer) seedPositions(b *netlist.Block, r *rng.R) {
	for i := range b.Cells {
		c := &b.Cells[i]
		if c.Fixed {
			continue
		}
		out := b.Outline[c.Die]
		if c.Pos.X == 0 && c.Pos.Y == 0 {
			c.Pos = geom.Point{
				X: r.Range(out.Lo.X, out.Hi.X-c.Master.Width),
				Y: r.Range(out.Lo.Y, out.Hi.Y-tech.CellHeight),
			}
		} else {
			c.Pos = clampCell(out, c)
		}
	}
}

// resetF64 returns a zeroed length-n float64 slice backed by *s, growing
// the backing array only when capacity runs out.
func resetF64(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
		return *s
	}
	v := (*s)[:n]
	clear(v)
	return v
}

// grownF64 is resetF64 without the clear, for scratch whose used entries
// are fully overwritten before being read.
func grownF64(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
		return *s
	}
	return (*s)[:n]
}

func clampCell(out geom.Rect, c *netlist.Instance) geom.Point {
	// Branch form of min(max(v, lo), hi); math.Min/Max don't inline and
	// this is the hottest little function of the placer.
	x, y := c.Pos.X, c.Pos.Y
	if x < out.Lo.X {
		x = out.Lo.X
	}
	if hi := out.Hi.X - c.Master.Width; x > hi {
		x = hi
	}
	if y < out.Lo.Y {
		y = out.Lo.Y
	}
	if hi := out.Hi.Y - tech.CellHeight; y > hi {
		y = hi
	}
	return geom.Point{X: x, Y: y}
}

// wirelengthPass moves every movable cell toward the weighted centroid of
// its nets' other pins (one Jacobi sweep of the quadratic star model). Nets
// spanning dies pull through the shared XY plane — this is exactly the
// "ideal 3D interconnect" pull of the paper's folding placer. lambda damps
// the move.
func (p *Placer) wirelengthPass(b *netlist.Block, lambda float64) {
	n := len(b.Cells)
	sumX := resetF64(&p.wlX, n)
	sumY := resetF64(&p.wlY, n)
	sumW := resetF64(&p.wlW, n)

	// Snapshot every cell center into flat slices once per pass: the pin
	// loops below then stream over float64 arrays instead of dispatching
	// through PinPos and dereferencing Instance/Master per pin (each cell
	// is touched by ~3 pins on average). Positions don't change until the
	// update loop, so the cache equals what PinPos would have returned.
	ctrX := grownF64(&p.ctrX, n)
	ctrY := grownF64(&p.ctrY, n)
	for i := range b.Cells {
		c := &b.Cells[i]
		ctrX[i] = c.Pos.X + c.Master.Width/2
		ctrY[i] = c.Pos.Y + tech.CellHeight/2
	}
	pinX := func(pr netlist.PinRef) (float64, float64) {
		if pr.Kind == netlist.KindCell {
			return ctrX[pr.Idx], ctrY[pr.Idx]
		}
		pt := b.PinPos(pr)
		return pt.X, pt.Y
	}

	for ni := range b.Nets {
		net := &b.Nets[ni]
		if len(net.Sinks) == 0 {
			continue
		}
		// Star model: every pin attracts toward the net centroid with
		// weight 1/(k-1). Pins visit in driver-then-sinks order, the same
		// order a combined pin slice would give, so the sums are
		// bit-identical to the materialized version.
		cx, cy := pinX(net.Driver)
		for _, pr := range net.Sinks {
			x, y := pinX(pr)
			cx += x
			cy += y
		}
		k := float64(len(net.Sinks) + 1)
		cx /= k
		cy /= k
		w := 1.0 / (k - 1)
		if net.Kind == netlist.Clock {
			w *= 0.25 // clock nets are CTS's problem; don't let them clump logic
		}
		// Fixed cells accumulate too: their sums are never read (the update
		// loop below skips Fixed), and dropping the per-pin Fixed lookup
		// removes a random Instance-array load from the hottest loop.
		wcx, wcy := w*cx, w*cy
		if pr := net.Driver; pr.Kind == netlist.KindCell {
			sumX[pr.Idx] += wcx
			sumY[pr.Idx] += wcy
			sumW[pr.Idx] += w
		}
		for _, pr := range net.Sinks {
			if pr.Kind == netlist.KindCell {
				sumX[pr.Idx] += wcx
				sumY[pr.Idx] += wcy
				sumW[pr.Idx] += w
			}
		}
	}

	for i := range b.Cells {
		c := &b.Cells[i]
		if c.Fixed || sumW[i] == 0 {
			continue
		}
		tx := sumX[i]/sumW[i] - c.Master.Width/2
		ty := sumY[i]/sumW[i] - tech.CellHeight/2
		c.Pos.X += lambda * (tx - c.Pos.X)
		c.Pos.Y += lambda * (ty - c.Pos.Y)
		c.Pos = clampCell(b.Outline[c.Die], c)
	}
}

// densityGrid holds the per-bin placement supply for one die.
type densityGrid struct {
	grid   *geom.Grid
	supply []float64 // available placement area per bin
}

// buildDensityGrid computes the supply map of die d: bin area times target
// utilization, with macro overlaps handled per the macro mode. Under
// MacroHoles the macro-covered area contributes zero supply (a hole).
func (p *Placer) buildDensityGrid(b *netlist.Block, d netlist.Die) (*densityGrid, error) {
	out := b.Outline[d]
	// Bin count: aim for ~BinCells cells per bin, at least 4x4.
	nCells := 0
	for i := range b.Cells {
		if b.Cells[i].Die == d {
			nCells++
		}
	}
	nb := int(math.Sqrt(float64(nCells)/p.opt.BinCells)) + 1
	if nb < 4 {
		nb = 4
	}
	g, err := geom.NewGrid(out, nb, nb)
	if err != nil {
		return nil, fmt.Errorf("place: block %s die %s: %v", b.Name, d, err)
	}
	dg := &densityGrid{grid: g, supply: make([]float64, g.NumBins())}
	for i := range dg.supply {
		ix, iy := g.Coords(i)
		dg.supply[i] = g.BinRect(ix, iy).Area() * p.opt.TargetUtil
	}
	for i := range b.Macros {
		m := &b.Macros[i]
		if m.Die != d {
			continue
		}
		blockArea := m.Rect()
		switch p.opt.Macro {
		case MacroHoles:
			// Hole: remove the full overlapped supply.
			g.OverlapBins(blockArea, func(ix, iy int, area float64) {
				idx := g.Index(ix, iy)
				dg.supply[idx] -= area / p.opt.TargetUtil * p.opt.TargetUtil
				if dg.supply[idx] < 0 {
					dg.supply[idx] = 0
				}
			})
		case MacroDemand:
			// Demand-reduction: macro consumes only DemandFactor of its
			// area, leaving phantom supply that attracts cells which
			// legalization must then evict (halos).
			g.OverlapBins(blockArea, func(ix, iy int, area float64) {
				idx := g.Index(ix, iy)
				dg.supply[idx] -= area * p.opt.DemandFactor
				if dg.supply[idx] < 0 {
					dg.supply[idx] = 0
				}
			})
		}
	}
	// Fixed cells and TSV landing pads also consume supply. TSV pads block
	// both dies (the via body pierces the top silicon; the pad sits at M1 of
	// the bottom die).
	consume := func(r geom.Rect) {
		g.OverlapBins(r, func(ix, iy int, area float64) {
			idx := g.Index(ix, iy)
			dg.supply[idx] -= area
			if dg.supply[idx] < 0 {
				dg.supply[idx] = 0
			}
		})
	}
	for i := range b.Cells {
		c := &b.Cells[i]
		if c.Die == d && c.Fixed {
			consume(c.Rect())
		}
	}
	for _, pad := range b.TSVPads {
		consume(pad)
	}
	return dg, nil
}

// SupplyGrid builds the density-supply map of die d — bin area at the
// target utilization with macros as holes (or reduced demand), fixed cells
// and TSV pads consumed — and returns the grid with the per-bin supply
// areas. It is the same map the force-directed spreading uses; alternative
// backends (the analytical bistratal placer) call it so every backend
// spreads against identical supply, macro holes included.
func (p *Placer) SupplyGrid(b *netlist.Block, d netlist.Die) (*geom.Grid, []float64, error) {
	dg, err := p.buildDensityGrid(b, d)
	if err != nil {
		return nil, nil, err
	}
	return dg.grid, dg.supply, nil
}

// spreadPass performs one FastPlace-style cell-shifting step on die d: the
// x (then y) coordinate distribution of cell area is remapped so that the
// cumulative demand tracks the cumulative supply. Zero-supply spans (macro
// holes) are jumped over, which is precisely the behaviour the paper needs
// for the L2D memory-bank folding.
func (p *Placer) spreadPass(b *netlist.Block, d netlist.Die, dg *densityGrid) {
	g := dg.grid
	// --- X direction: per bin row. Row membership depends only on Y,
	// which the X shifts leave untouched, so one bucketing serves every
	// lane of the sweep. ---
	p.bucketLanes(b, d, g, true)
	for iy := 0; iy < g.NY; iy++ {
		p.shift1D(b, d, g, dg, iy, true)
	}
	// --- Y direction: per bin column (re-bucketed — the X sweep moved
	// cells across columns) ---
	p.bucketLanes(b, d, g, false)
	for ix := 0; ix < g.NX; ix++ {
		p.shift1D(b, d, g, dg, ix, false)
	}
}

// bucketLanes groups the movable cells of die d by bin row (horiz=true) or
// bin column (horiz=false) into the laneOff/laneCells CSR scratch. Cells
// keep index order within each lane — the same visit order the previous
// scan-all-cells-per-lane implementation produced — so the per-bin demand
// sums and per-cell shifts of shift1D stay bit-identical.
func (p *Placer) bucketLanes(b *netlist.Block, d netlist.Die, g *geom.Grid, horiz bool) {
	lanes := g.NY
	if !horiz {
		lanes = g.NX
	}
	if cap(p.laneOff) < lanes+1 {
		p.laneOff = make([]int32, lanes+1)
	}
	off := p.laneOff[:lanes+1]
	clear(off)
	if cap(p.laneOf) < len(b.Cells) {
		p.laneOf = make([]int32, len(b.Cells))
		p.laneCells = make([]int32, len(b.Cells))
	}
	laneOf := p.laneOf[:len(b.Cells)]
	soaX := grownF64(&p.soaX, len(b.Cells))
	soaY := grownF64(&p.soaY, len(b.Cells))
	soaHW := grownF64(&p.soaHW, len(b.Cells))
	soaW := grownF64(&p.soaW, len(b.Cells))
	soaArea := grownF64(&p.soaArea, len(b.Cells))
	for i := range b.Cells {
		c := &b.Cells[i]
		if c.Die != d || c.Fixed {
			laneOf[i] = -1
			continue
		}
		// One streaming pass over the instances snapshots everything the
		// shift loops need into the flat SoA mirror; within a sweep each
		// cell is read once before its single write, so the snapshot stays
		// equal to the live value at every read the old code performed.
		w := c.Master.Width
		soaX[i], soaY[i] = c.Pos.X, c.Pos.Y
		soaHW[i], soaW[i] = w/2, w
		soaArea[i] = c.Master.Area()
		// Only one axis decides the lane; BinX/BinY run the same arithmetic
		// as the matching half of BinAt, so the lane index is unchanged.
		var lane int
		if horiz {
			lane = g.BinY(c.Pos.Y + tech.CellHeight/2)
		} else {
			lane = g.BinX(c.Pos.X + w/2)
		}
		laneOf[i] = int32(lane)
		off[lane+1]++
	}
	for k := 0; k < lanes; k++ {
		off[k+1] += off[k]
	}
	// Fill using off[lane] as a moving cursor, then shift the array back
	// one slot so off[lane] is the lane's start offset again.
	cells := p.laneCells[:len(b.Cells)]
	for i, lane := range laneOf {
		if lane < 0 {
			continue
		}
		cells[off[lane]] = int32(i)
		off[lane]++
	}
	for k := lanes; k > 0; k-- {
		off[k] = off[k-1]
	}
	off[0] = 0
}

// shift1D remaps the coordinate of the cells in one bin row (horiz=true) or
// column (horiz=false) so demand matches supply cumulatively. The lane's
// cells come from the CSR buckets a preceding bucketLanes call built.
func (p *Placer) shift1D(b *netlist.Block, d netlist.Die, g *geom.Grid, dg *densityGrid, lane int, horiz bool) {
	cells := p.laneCells[p.laneOff[lane]:p.laneOff[lane+1]]
	if len(cells) == 0 {
		return
	}
	n := g.NX
	if !horiz {
		n = g.NY
	}
	demand := resetF64(&p.demand, n) // accumulated below, needs the clear
	supply := grownF64(&p.supply, n) // every entry assigned below
	soaX, soaY := p.soaX, p.soaY
	soaHW, soaW, soaArea := p.soaHW, p.soaW, p.soaArea

	// The demand and mapping loops are specialized per axis below: the
	// branch-free bodies stream over the SoA slices, and only the axis that
	// matters is binned (BinX/BinY match the corresponding half of BinAt).
	if horiz {
		for _, ci := range cells {
			demand[g.BinX(soaX[ci]+soaHW[ci])] += soaArea[ci]
		}
	} else {
		for _, ci := range cells {
			demand[g.BinY(soaY[ci]+tech.CellHeight/2)] += soaArea[ci]
		}
	}
	for k := 0; k < n; k++ {
		var idx int
		if horiz {
			idx = g.Index(k, lane)
		} else {
			idx = g.Index(lane, k)
		}
		supply[k] = dg.supply[idx] + 1e-9
	}

	// Cumulative distributions along the lane (fully assigned, no clear).
	cumD := grownF64(&p.cumD, n+1)
	cumS := grownF64(&p.cumS, n+1)
	cumD[0], cumS[0] = 0, 0
	for k := 0; k < n; k++ {
		cumD[k+1] = cumD[k] + demand[k]
		cumS[k+1] = cumS[k] + supply[k]
	}
	totD, totS := cumD[n], cumS[n]
	if totD <= 0 {
		return
	}

	// Per-demand-bin start index into the supply CDF: jlo[k] is the first j
	// with cumS[j+1] >= cumD[k]/totD*totS. A cell binned in k maps to a u at
	// or past that point (u < cumD[k]-scaled only when the cell clamps below
	// bin 0, where jlo[0] is 0 anyway), so the inversion below can scan
	// linearly from jlo[k] instead of binary-searching the whole lane — it
	// still finds the exact same first-crossing index, only cheaper. Both
	// sequences are monotone, so one merge sweep fills the table.
	jlo := grownI32(&p.jlo, n)
	for k, j := 0, 0; k < n; k++ {
		u0 := cumD[k] / totD * totS
		for j < n && cumS[j+1] < u0 {
			j++
		}
		jlo[k] = int32(j)
	}

	lo := g.Region.Lo.X
	binSz, _ := g.BinSize()
	if !horiz {
		lo = g.Region.Lo.Y
		_, binSz = g.BinSize()
	}

	// Map each cell's coordinate through: u = demand CDF at coord (scaled),
	// then find coord' where supply CDF reaches u * totS/totD. The mapping
	// body lives in the loop (it is the hottest path of the placer), once
	// per axis; both the mapping arithmetic and the inlined clampCell run
	// identical operations on identical inputs as the generic version, so
	// every position stays bit-identical.
	const alpha = 0.55 // damping of the shift
	out := b.Outline[d]
	if horiz {
		for _, i := range cells {
			px, py := soaX[i], soaY[i]
			coord := px + soaHW[i]
			f := (coord - lo) / binSz
			k := int(f)
			if k < 0 {
				k = 0
			}
			if k >= n {
				k = n - 1
			}
			frac := f - float64(k)
			u := (cumD[k] + frac*demand[k]) / totD * totS
			// Invert supply CDF: first bin whose cum reaches u, scanning
			// from the bin's precomputed lower bound (same index the old
			// binary search produced).
			j := int(jlo[k])
			for j < n && cumS[j+1] < u {
				j++
			}
			if j >= n {
				j = n - 1
			}
			var t float64
			if supply[j] > 0 {
				t = (u - cumS[j]) / supply[j]
			}
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			mapped := lo + (float64(j)+t)*binSz
			px += alpha * (mapped - coord)
			if px < out.Lo.X {
				px = out.Lo.X
			}
			if hi := out.Hi.X - soaW[i]; px > hi {
				px = hi
			}
			if py < out.Lo.Y {
				py = out.Lo.Y
			}
			if hi := out.Hi.Y - tech.CellHeight; py > hi {
				py = hi
			}
			b.Cells[i].Pos = geom.Point{X: px, Y: py}
		}
		return
	}
	for _, i := range cells {
		px, py := soaX[i], soaY[i]
		coord := py + tech.CellHeight/2
		f := (coord - lo) / binSz
		k := int(f)
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		frac := f - float64(k)
		u := (cumD[k] + frac*demand[k]) / totD * totS
		j := int(jlo[k])
		for j < n && cumS[j+1] < u {
			j++
		}
		if j >= n {
			j = n - 1
		}
		var t float64
		if supply[j] > 0 {
			t = (u - cumS[j]) / supply[j]
		}
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		mapped := lo + (float64(j)+t)*binSz
		py += alpha * (mapped - coord)
		if px < out.Lo.X {
			px = out.Lo.X
		}
		if hi := out.Hi.X - soaW[i]; px > hi {
			px = hi
		}
		if py < out.Lo.Y {
			py = out.Lo.Y
		}
		if hi := out.Hi.Y - tech.CellHeight; py > hi {
			py = hi
		}
		b.Cells[i].Pos = geom.Point{X: px, Y: py}
	}
}

// HPWL returns the total half-perimeter wirelength of all signal nets of b
// (3D nets measured in the shared XY plane), the placer's objective value.
func HPWL(b *netlist.Block) float64 {
	var wl float64
	var pins []geom.Point
	for i := range b.Nets {
		n := &b.Nets[i]
		if n.Kind != netlist.Signal {
			continue
		}
		pins = b.AppendNetPins(pins[:0], n)
		wl += geom.HPWL(pins)
	}
	return wl
}
