package t2

import (
	"fmt"
	"math"
	"strconv"

	"fold3d/internal/errs"
	"fold3d/internal/floorplan"
	"fold3d/internal/netlist"
	"fold3d/internal/rng"
	"fold3d/internal/tech"
)

// Config parameterizes the synthetic T2.
type Config struct {
	// Scale is the netlist scale factor: one modeled cell per Scale physical
	// cells (tech.ScaleModel).
	Scale float64
	// Seed drives all netlist randomness.
	Seed uint64
	// Only restricts generation to the named blocks (nil = all 46); block
	// experiments (CCX folding, L2T partition sweeps) use this to avoid
	// building the whole chip.
	Only []string
}

// DefaultConfig is the full-chip default used by the experiments.
func DefaultConfig() Config { return Config{Scale: 1000, Seed: 42} }

// Design is the generated T2 database.
type Design struct {
	Cfg     Config
	Lib     *tech.Library
	Scale   tech.ScaleModel
	Specs   map[string]BlockSpec
	Blocks  map[string]*netlist.Block
	Bundles []floorplan.Bundle
	// Levels holds the generator's logic level per cell (DAG rank), used to
	// keep port hookup acyclic.
	Levels map[string][]int16
	// free lists the reserved, still-unconnected cell inputs per block and
	// group, consumed by ConnectPorts.
	free map[string]map[string][]netlist.PinRef
}

// PortScale is the number of physical wires represented by one drawn chip
// port/wire. The drawn port population shrinks more slowly than the cell
// population (scale^0.25 rather than scale) because boundary pin counts
// follow Rent's rule, not block size; this keeps the port-budget coupling
// between chip-level and block-level timing representative.
func (d *Design) PortScale() float64 { return math.Pow(d.Cfg.Scale, 0.25) }

// DrawnBundles returns the bundle list with widths divided by PortScale,
// the sizes at which ports are actually created on the drawn netlists.
func (d *Design) DrawnBundles() []floorplan.Bundle {
	ps := d.PortScale()
	out := make([]floorplan.Bundle, len(d.Bundles))
	for i, b := range d.Bundles {
		b.Width = int(math.Ceil(float64(b.Width) / ps))
		if b.Width < 1 {
			b.Width = 1
		}
		out[i] = b
	}
	return out
}

// DrawnPortCount returns the expected number of drawn chip-level ports of a
// block (both directions), before AssignPorts has run — outline sizing needs
// it because port-heavy blocks (the crossbar above all) are wire- and
// repeater-dominated.
func (d *Design) DrawnPortCount(block string) int {
	ps := d.PortScale()
	n := 0
	for _, b := range d.Bundles {
		if b.A == block || b.B == block {
			w := int(math.Ceil(float64(b.Width) / ps))
			if w < 1 {
				w = 1
			}
			n += w
		}
	}
	return n
}

// MaxScale is the largest supported netlist scale factor: beyond one
// modeled cell per million physical cells every block collapses to its
// minimum size and the model carries no information.
const MaxScale = 1e6

// Generate builds the design database at the configured scale. Errors wrap
// errs.ErrBadOptions (scale outside [1, MaxScale], including NaN and Inf)
// and errs.ErrUnknownBlock (an Only entry naming no T2 block) so callers
// can classify with errors.Is.
func Generate(cfg Config) (*Design, error) {
	// The negated >=-&&-<= form rejects NaN too: every comparison against
	// NaN is false, so a bare `< 1` check would wave NaN straight through
	// into the geometry math.
	if !(cfg.Scale >= 1 && cfg.Scale <= MaxScale) {
		return nil, fmt.Errorf("t2: %w: scale must be in [1, %g], got %g",
			errs.ErrBadOptions, float64(MaxScale), cfg.Scale)
	}
	known := make(map[string]bool)
	for _, spec := range Blocks() {
		known[spec.Name] = true
	}
	for _, n := range cfg.Only {
		if !known[n] {
			return nil, fmt.Errorf("t2: %w: %q is not a T2 block", errs.ErrUnknownBlock, n)
		}
	}
	sm, err := tech.NewScaleModel(cfg.Scale)
	if err != nil {
		return nil, err
	}
	d := &Design{
		Cfg:     cfg,
		Lib:     tech.NewLibrary(),
		Scale:   sm,
		Specs:   make(map[string]BlockSpec),
		Blocks:  make(map[string]*netlist.Block),
		Bundles: Bundles(),
		Levels:  make(map[string][]int16),
		free:    make(map[string]map[string][]netlist.PinRef),
	}
	only := make(map[string]bool)
	for _, n := range cfg.Only {
		only[n] = true
	}
	r := rng.New(cfg.Seed)
	need := d.portSinkNeed()
	for _, spec := range Blocks() {
		d.Specs[spec.Name] = spec
		if len(only) > 0 && !only[spec.Name] {
			continue
		}
		blk, free, levels, err := d.generateBlock(spec, need[spec.Name], r.Split(spec.Name))
		if err != nil {
			return nil, fmt.Errorf("t2: generating %s: %v", spec.Name, err)
		}
		d.Blocks[spec.Name] = blk
		d.free[spec.Name] = free
		d.Levels[spec.Name] = levels
	}
	return d, nil
}

// portSinkNeed estimates how many reserved cell inputs each block group
// needs to absorb its incoming bundle wires (2 sinks per drawn wire, with
// 50% headroom).
func (d *Design) portSinkNeed() map[string]map[string]int {
	need := make(map[string]map[string]int)
	ps := d.PortScale()
	for _, b := range d.Bundles {
		w := int(math.Ceil(float64(b.Width) / ps))
		if need[b.B] == nil {
			need[b.B] = make(map[string]int)
		}
		need[b.B][b.GroupB] += w * 3
	}
	return need
}

// pickFamily draws a cell family from the synthesis mix.
func pickFamily(r *rng.R) tech.Family {
	// Weights: DFF 14, INV 16, NAND2 24, NOR2 14, AOI22 12, XOR2 8, MUX2 12.
	x := r.Intn(100)
	switch {
	case x < 14:
		return tech.DFF
	case x < 30:
		return tech.INV
	case x < 54:
		return tech.NAND2
	case x < 68:
		return tech.NOR2
	case x < 80:
		return tech.AOI22
	case x < 88:
		return tech.XOR2
	default:
		return tech.MUX2
	}
}

// pickDrive draws an as-synthesized drive strength.
func pickDrive(r *rng.R) int {
	x := r.Intn(100)
	switch {
	case x < 10:
		return 1
	case x < 45:
		return 2
	case x < 80:
		return 4
	case x < 95:
		return 8
	default:
		return 16
	}
}

// scaledMacro returns the macro model at drawn geometry: dimensions shrink
// with layout extent; per-macro energy and leakage divide by the scale so
// the report-time power multiplier restores physical magnitude (macro counts
// are not scaled); per-net pin capacitance stays physical.
func (d *Design) scaledMacro() tech.MacroModel {
	m := d.Lib.MacroKB
	sh := d.Scale.LinearShrink()
	m.Width /= sh
	m.Height /= sh
	m.LeakmW /= d.Cfg.Scale
	m.ReadEnergyFJ /= d.Cfg.Scale
	return m
}

// generateBlock synthesizes one block netlist.
func (d *Design) generateBlock(spec BlockSpec, need map[string]int, r *rng.R) (*netlist.Block, map[string][]netlist.PinRef, []int16, error) {
	b := netlist.NewBlock(spec.Name, spec.Clock)
	if spec.Kind == KindSPC {
		b.MaxRouteLayer = 9 // the SPC gets all nine metal layers (paper §2.2)
	}
	n := int(float64(spec.Cells) / d.Cfg.Scale)
	if n < 40 {
		n = 40
	}
	depth := spec.Depth
	if depth < 4 {
		depth = 8
	}

	groups := spec.Groups
	if len(groups) == 0 {
		groups = []GroupSpec{{Name: "", Frac: 1}}
	}

	// Cell creation with group and level assignment. Reserve the planned
	// counts up front: nets are created lazily one per driving pin, so the
	// cell count (plus macro/port slack) bounds them well.
	b.GrowCells(n + 8)
	b.GrowNets(n + 8)
	levels := make([]int16, 0, n)
	// byGL holds the candidate drivers per (group, level), flat: levels run
	// 0..depth, so group gi's lists start at gi*stride. cands reads it and
	// returns nil for a level outside that range.
	stride := depth + 1
	byGL := make([][]int32, len(groups)*stride)
	cands := func(gi int, l int16) []int32 {
		if l < 0 || int(l) >= stride {
			return nil
		}
		return byGL[gi*stride+int(l)]
	}
	groupOf := make([]int, 0, n)
	created := 0
	for gi, g := range groups {
		gn := int(float64(n)*g.Frac + 0.5)
		if gi == len(groups)-1 {
			gn = n - created
		}
		if gn < 4 {
			gn = 4
		}
		prefix := spec.Name + "_" + g.Name + "_c"
		for k := 0; k < gn; k++ {
			fam := pickFamily(r)
			master := d.Lib.MustCell(fam, pickDrive(r), tech.RVT)
			var lvl int16
			if fam == tech.DFF {
				lvl = 0
			} else {
				lvl = int16(1 + r.Intn(depth))
			}
			act := clampAct(r.Norm(spec.Activity, 0.06))
			idx := b.AddCell(netlist.Instance{
				Name:     numbered(prefix, k),
				Master:   master,
				Group:    g.Name,
				Activity: act,
			})
			levels = append(levels, lvl)
			groupOf = append(groupOf, gi)
			byGL[gi*stride+int(lvl)] = append(byGL[gi*stride+int(lvl)], idx)
		}
		created += gn
	}

	// Macros: distributed round-robin over fold groups (or the single
	// anonymous group).
	macroModel := d.scaledMacro()
	var macroGroups []int
	for gi, g := range groups {
		if g.Fold || g.Name == "" {
			macroGroups = append(macroGroups, gi)
		}
	}
	if len(macroGroups) == 0 {
		macroGroups = []int{0}
	}
	for k := 0; k < spec.Macros; k++ {
		gi := macroGroups[k%len(macroGroups)]
		b.AddMacro(netlist.MacroInst{
			Name:     numbered(spec.Name+"_m", k),
			Model:    macroModel,
			Group:    groups[gi].Name,
			Activity: 0.5,
			Fixed:    true,
		})
	}

	// Wiring. Nets are created lazily per driver. A cell drives through
	// its one output, so its net is found by cell index (cellNet holds the
	// net index plus one; 0 means none yet); macro outputs keep a map.
	cellNet := make([]int32, len(b.Cells))
	macroNet := make(map[netlist.PinRef]int32)
	netPrefix := spec.Name + "_n"
	getNet := func(drv netlist.PinRef) *netlist.Net {
		if drv.Kind == netlist.KindCell {
			if ni := cellNet[drv.Idx]; ni > 0 {
				return &b.Nets[ni-1]
			}
		} else if ni, ok := macroNet[drv]; ok {
			return &b.Nets[ni]
		}
		ni := b.AddNet(netlist.Net{
			Name:     numbered(netPrefix, len(b.Nets)),
			Kind:     netlist.Signal,
			Driver:   drv,
			Activity: clampAct(r.Norm(spec.Activity, 0.06)),
		})
		if drv.Kind == netlist.KindCell {
			cellNet[drv.Idx] = ni + 1
		} else {
			macroNet[drv] = ni
		}
		return &b.Nets[ni]
	}
	// pickDriver selects a DAG-safe driver for a sink at (group gi, level
	// lvl): same group, lower level, biased toward the previous level and a
	// small hub population (high-fanout control signals).
	pickDriver := func(gi int, lvl int16) (netlist.PinRef, bool) {
		for try := 0; try < 8; try++ {
			var dl int16
			if lvl > 1 && r.Bool(0.6) {
				dl = lvl - 1
			} else {
				dl = int16(r.Intn(int(lvl)))
			}
			cand := cands(gi, dl)
			if len(cand) == 0 {
				continue
			}
			var idx int32
			if r.Bool(0.08) {
				idx = cand[r.Intn(maxInt(1, (len(cand)+3)/4))] // hub bias
			} else {
				idx = cand[r.Intn(len(cand))]
			}
			return netlist.PinRef{Kind: netlist.KindCell, Idx: idx}, true
		}
		return netlist.PinRef{}, false
	}

	// Group-coupling policy. Isolated fold groups (CCX) get exactly
	// CrossNets explicit cross edges; loosely coupled groups (SPC FUBs)
	// cross with probability CrossFrac.
	isolated := spec.CrossNets > 0 || (len(groups) > 1 && spec.CrossFrac == 0)

	free := make(map[string][]netlist.PinRef)
	reserveLeft := make(map[int]int)
	for gi, g := range groups {
		reserveLeft[gi] = need[g.Name]
	}
	// Anonymous-group need applies to the whole block.
	anyNeed := need[""]

	for ci := range b.Cells {
		c := &b.Cells[ci]
		gi := groupOf[ci]
		lvl := levels[ci]
		nin := c.Master.Fam.NumInputs()
		nearCapture := !c.Master.Fam.IsSequential() && int(lvl) >= depth-3
		for pin := 0; pin < nin; pin++ {
			ref := netlist.PinRef{Kind: netlist.KindCell, Idx: int32(ci), Pin: int16(pin)}
			// Reserve inputs for port hookup — only near-capture cells, so
			// an arriving inter-block signal crosses at most a couple of
			// logic levels before its register (blocks register their I/O
			// closely; combinational feed-through across a block does not
			// exist in the real design).
			if nearCapture && reserveLeft[gi] > 0 && r.Bool(0.5) {
				free[groups[gi].Name] = append(free[groups[gi].Name], ref)
				reserveLeft[gi]--
				continue
			}
			if nearCapture && anyNeed > 0 && len(groups) > 1 && r.Bool(0.05) {
				free[""] = append(free[""], ref)
				anyNeed--
				continue
			}
			sg := gi
			if !isolated && len(groups) > 1 && r.Bool(spec.CrossFrac) {
				sg = r.Intn(len(groups))
			}
			var drvLvl int16
			if c.Master.Fam.IsSequential() {
				drvLvl = int16(depth) // D input captures from the deepest logic
			} else {
				drvLvl = lvl
			}
			if drvLvl == 0 {
				continue // level-0 DFFs' D inputs handled via depth above
			}
			drv, ok := pickDriver(sg, drvLvl)
			if !ok {
				continue
			}
			nn := getNet(drv)
			nn.Sinks = append(nn.Sinks, ref)
		}
	}

	// Explicit cross-group nets between the first two fold groups (CCX's
	// PCX/CPX share only clock and a few test signals).
	if spec.CrossNets > 0 && len(groups) >= 2 {
		for k := 0; k < spec.CrossNets; k++ {
			drv, ok1 := pickDriver(0, int16(depth))
			cand := cands(1, int16(1+r.Intn(depth)))
			if !ok1 || len(cand) == 0 {
				continue
			}
			sink := netlist.PinRef{Kind: netlist.KindCell, Idx: cand[r.Intn(len(cand))], Pin: 0}
			nn := getNet(drv)
			nn.Sinks = append(nn.Sinks, sink)
		}
	}

	// Macro connectivity: each macro's outputs feed nearby logic, its
	// inputs are driven by deep logic of its group.
	for mi := range b.Macros {
		gi := 0
		for g := range groups {
			if groups[g].Name == b.Macros[mi].Group {
				gi = g
				break
			}
		}
		for k := 0; k < 6; k++ {
			// Macro output k drives 2 cells in the shallow levels: memory
			// read data flows through a couple of logic stages and leaves
			// for the consuming block (the L2 data path), so the macro
			// access time lands on the block-output cones. These synthesized
			// memories are what limit the paper's T2 to 500MHz (§3.2 fn.1).
			drv := netlist.PinRef{Kind: netlist.KindMacro, Idx: int32(mi), Pin: int16(k)}
			net := getNet(drv)
			for s := 0; s < 2; s++ {
				lo := 4
				if lo >= depth {
					lo = depth - 1
				}
				cand := cands(gi, int16(lo+r.Intn(3)))
				if len(cand) == 0 {
					continue
				}
				net.Sinks = append(net.Sinks, netlist.PinRef{Kind: netlist.KindCell, Idx: cand[r.Intn(len(cand))], Pin: 0})
			}
			if len(net.Sinks) == 0 {
				// Guarantee a sink so validation holds.
				if c := cands(gi, 1); len(c) > 0 {
					net.Sinks = append(net.Sinks, netlist.PinRef{Kind: netlist.KindCell, Idx: c[0], Pin: 0})
				}
			}
		}
		for k := 0; k < 6; k++ {
			// Macro input k is driven by a deep cell.
			if drv, ok := pickDriver(gi, int16(depth)); ok {
				nn := getNet(drv)
				nn.Sinks = append(nn.Sinks,
					netlist.PinRef{Kind: netlist.KindMacro, Idx: int32(mi), Pin: int16(6 + k)})
			}
		}
	}

	// Drop zero-sink nets defensively (possible if a lazy net was created
	// and never got sinks — getNet always precedes a sink append, so this
	// should be a no-op; keep the netlist valid regardless).
	compactNets(b)
	if err := b.Validate(); err != nil {
		return nil, nil, nil, err
	}
	return b, free, levels, nil
}

// numbered returns prefix followed by k in decimal, the name fmt's "%s%d"
// would make, in one allocation.
func numbered(prefix string, k int) string {
	var buf [64]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(k), 10))
}

func clampAct(a float64) float64 {
	if a < 0.02 {
		return 0.02
	}
	if a > 0.6 {
		return 0.6
	}
	return a
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// compactNets removes nets without sinks.
func compactNets(b *netlist.Block) {
	out := b.Nets[:0]
	for i := range b.Nets {
		if len(b.Nets[i].Sinks) > 0 {
			out = append(out, b.Nets[i])
		}
	}
	b.Nets = out
}
