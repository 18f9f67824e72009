// Package flow is the RTL-to-GDSII-like implementation engine: it drives a
// block (or the whole chip) through outline sizing, macro placement, mixed-
// size placement, clock tree synthesis, repeater insertion, timing and power
// optimization, parasitic extraction, STA and power analysis — the same
// stages the paper runs in its commercial-tool flow (§2.2) — for every
// design style the paper compares: 2D, 3D floorplanned (F2B), and folded
// blocks under F2B or F2F bonding, with RVT-only or dual-Vth libraries.
package flow

import (
	"context"
	"sync"

	"fold3d/internal/cts"
	"fold3d/internal/extract"
	"fold3d/internal/netlist"
	"fold3d/internal/opt"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"

	// Register the analytical bistratal backend into the place registry so
	// every flow consumer (experiments, jobs, the daemons) can select it by
	// name. The force backend registers from within internal/place itself.
	_ "fold3d/internal/place/analytical"
	"fold3d/internal/power"
	"fold3d/internal/sta"
	"fold3d/internal/t2"
	"fold3d/internal/tech"
	"fold3d/internal/thermal"
)

// Progress is one live status event of a chip or block build. Events fire
// as work completes; under a parallel build their order across blocks is
// scheduler-dependent (they report status, never results — results merge
// deterministically regardless).
type Progress struct {
	// Stage names the build phase: "fold", "floorplan", "implement",
	// "chip-nets" or "done".
	Stage string
	// Block is the block just processed (empty for chip-level stages).
	Block string
	// Done and Total count finished vs scheduled units in this stage.
	Done, Total int
	// Experiment names the harness-level run this event belongs to. A flow
	// never sets it — within one flow there is nothing to distinguish — but
	// multiplexers that drive several flows through one callback (exp.RunAll,
	// the fold3dd job event stream) tag each event with its source here.
	Experiment string
}

// Stage names reported through Config.Progress.
const (
	StageFold      = "fold"
	StageFloorplan = "floorplan"
	StageImplement = "implement"
	StageChipNets  = "chip-nets"
	StageDone      = "done"
)

// Config selects the design style and effort.
type Config struct {
	// Bond is the bonding style for 3D connections (extract.F2B/F2F).
	Bond extract.Bonding
	// UseHVT enables the dual-Vth power pass (paper §6.2).
	UseHVT bool
	// Util is the placement target utilization used for outline sizing.
	Util float64
	// BufferAllowance reserves outline area for repeaters and clock buffers.
	BufferAllowance float64
	// MacroChannel is the routing-channel fraction around macros.
	MacroChannel float64
	// TSVCoupling enables the TSV-to-wire coupling capacitance model
	// (paper §7 future work) during extraction of F2B designs.
	TSVCoupling bool
	// UseRSMT switches extraction to real rectilinear Steiner trees for
	// small nets (slower, more accurate).
	UseRSMT bool
	// Placer names the registered placement backend driving the place
	// stage: "force" (the paper's iterative placer, the default) or
	// "analytical" (the Nesterov bistratal placer). Empty selects
	// place.DefaultBackend. An unknown name fails the first block's place
	// stage with an error wrapping errs.ErrBadOptions naming the valid
	// backends; validate up front with place.ValidateBackend to fail
	// before any work starts.
	Placer string
	// Thermal configures the in-loop thermal planning stage: multigrid
	// temperature prediction plus greedy thermal-via insertion on folded F2B
	// blocks (DESIGN.md §17). The zero value (Enable false) registers no
	// stage and keeps every fingerprint byte-identical to a thermal-unaware
	// flow.
	Thermal ThermalConfig
	// Place, Opt and CTS tune the engines.
	Place place.Options
	Opt   opt.Options
	CTS   cts.Options
	Seed  uint64
	// Workers bounds the chip-build fan-out: 0 selects GOMAXPROCS, 1 is the
	// exact sequential legacy path, N>1 implements up to N blocks
	// concurrently. Results are bit-identical for every value (each block
	// draws from its own seeded RNG stream and the reduce runs in sorted
	// block-name order), so Workers trades wall-clock only.
	Workers int
	// Progress, when non-nil, receives live status events (blocks done /
	// total, current stage). Callbacks are serialized — they never run
	// concurrently — but under a parallel build their order across blocks
	// is scheduler-dependent.
	Progress func(Progress)
	// Cache, when non-nil, is the content-addressed artifact cache consulted
	// per block fold and per block implementation: a block whose complete
	// input state (netlist, outline, ports and budgets, seed, configuration)
	// fingerprints equal to a previous build restores that build's result
	// instead of recomputing — byte-identically, so results never depend on
	// cache temperature. Share one cache across flows (it is safe for
	// concurrent use) to reuse work across styles and experiments; see
	// pipeline.NewCache.
	Cache *pipeline.Cache
}

// WithDefaults fills every unset (zero) field of c from DefaultConfig,
// field by field — a partial Config keeps what it sets. Fields whose zero
// value is meaningful and equal to the default (Bond: F2B, UseHVT: false,
// TSVCoupling, UseRSMT, Workers: 0 = GOMAXPROCS) pass through unchanged.
func (c Config) WithDefaults() Config {
	def := DefaultConfig()
	if c.Util <= 0 {
		c.Util = def.Util
	}
	if c.BufferAllowance <= 0 {
		c.BufferAllowance = def.BufferAllowance
	}
	if c.MacroChannel <= 0 {
		c.MacroChannel = def.MacroChannel
	}
	if c.Placer == "" {
		c.Placer = def.Placer
	}
	if c.Place == (place.Options{}) {
		c.Place = def.Place
	}
	if c.Opt == (opt.Options{}) {
		c.Opt = def.Opt
	}
	if c.CTS == (cts.Options{}) {
		c.CTS = def.CTS
	}
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.Thermal.Enable {
		if c.Thermal.Params == (thermal.Params{}) {
			c.Thermal.Params = thermal.DefaultParams()
		}
		if c.Thermal.ViaBudget == 0 {
			c.Thermal.ViaBudget = DefaultThermalViaBudget
		}
	}
	return c
}

// DefaultConfig returns the flow defaults used across the experiments.
func DefaultConfig() Config {
	return Config{
		Bond:            extract.F2B,
		Placer:          place.DefaultBackend,
		Util:            0.66,
		BufferAllowance: 1.10,
		MacroChannel:    0.22,
		Place:           place.DefaultOptions(),
		Opt:             opt.DefaultOptions(),
		CTS:             cts.DefaultOptions(),
		Seed:            17,
	}
}

// Flow binds a design database to a configuration.
type Flow struct {
	D   *t2.Design
	Cfg Config
	Ex  *extract.Extractor
	// mu serializes Progress callbacks across the chip build's worker
	// pool.
	mu *sync.Mutex
	// placers and opts recycle per-block engine state across the chip
	// build: a finished block's placer and optimizer (with its timing
	// engine) go back in the pool and the next block reinitializes them,
	// reusing the scratch and result arrays instead of re-allocating the
	// ~20 per-cell slices every build. Reinit restores as-new behavior,
	// so pooled and fresh objects are interchangeable (fingerprints do
	// not depend on worker scheduling).
	placers sync.Pool
	opts    sync.Pool
	// thermals recycles multigrid thermal engines across blocks the same
	// way; the thermal-via stage grabs one per block and returns it.
	thermals sync.Pool
}

// New returns a flow over design d. Unset (zero) config fields take the
// defaults, field by field — see Config.WithDefaults; a partial Config
// keeps every field it does set.
func New(d *t2.Design, cfg Config) *Flow {
	cfg = cfg.WithDefaults()
	ex := extract.New(d.Lib, d.Scale, cfg.Bond)
	ex.TSVCoupling = cfg.TSVCoupling
	ex.UseRSMT = cfg.UseRSMT
	return &Flow{
		D:   d,
		Cfg: cfg,
		Ex:  ex,
		mu:  &sync.Mutex{},
	}
}

// progress emits one status event when a Progress hook is configured.
// Callbacks are serialized under the flow mutex.
func (f *Flow) progress(stage, block string, done, total int) {
	if f.Cfg.Progress == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.Cfg.Progress(Progress{Stage: stage, Block: block, Done: done, Total: total})
}

// BlockResult captures everything the experiments report per block.
type BlockResult struct {
	Block  *netlist.Block
	Stats  netlist.Stats
	Power  power.Report
	Timing *sta.Report
	CTS    *cts.Result
	// RepeatersInserted counts data-path repeaters from optimization.
	RepeatersInserted int
	// HVTSwapped counts RVT->HVT conversions.
	HVTSwapped int
}

// ImplementBlock runs the full block-level flow on b (which may already be
// folded/3D — the flow branches on b.Is3D). The block is modified in place;
// callers wanting to compare styles clone the synthesized netlist first.
// aspect is the outline aspect ratio used when the outline is not already
// fixed by the chip floorplan. It is ImplementBlockContext under
// context.Background().
func (f *Flow) ImplementBlock(b *netlist.Block, aspect float64) (*BlockResult, error) {
	return f.ImplementBlockContext(context.Background(), b, aspect)
}

// ImplementBlockContext is ImplementBlock honoring ctx: the pipeline
// executor checks for cancellation between stages (placement, extraction,
// CTS, optimization) and returns an error wrapping errs.ErrCanceled and
// ctx.Err() when the context dies mid-build.
//
// The block runs through its stage plan (see implState.blockPlan): outline
// prep, placement, 3D via insertion, extraction, repeater insertion, CTS,
// legalization, timing and power optimization, Vth swapping, and sign-off
// analysis, each a registered pipeline stage. With Cfg.Cache set, the plan
// fingerprint is looked up first and a hit restores the previous result
// byte-identically without running any stage.
func (f *Flow) ImplementBlockContext(ctx context.Context, b *netlist.Block, aspect float64) (*BlockResult, error) {
	st := &implState{f: f, b: b, aspect: aspect}
	ex := pipeline.Executor{Cache: f.Cfg.Cache}
	var spec *pipeline.ArtifactSpec
	if f.Cfg.Cache != nil {
		spec = st.artifactSpec()
	}
	if err := ex.Run(ctx, st.blockPlan(), spec); err != nil {
		return nil, err
	}
	// Recycle the engines only after Run returns: the executor's artifact
	// capture (which the cache encodes before Put returns) has finished, and
	// stageFinal copied the timing report out of the optimizer's engine,
	// so nothing reachable from st.res aliases pooled state. A cache-hit
	// restore leaves both nil.
	if st.placer != nil {
		f.placers.Put(st.placer)
	}
	if st.o != nil {
		f.opts.Put(st.o)
	}
	return st.res, nil
}

// getPlacer returns a pooled placement backend reinitialized for this
// flow's options, or a fresh one resolved through the backend registry when
// the pool is empty. One flow runs one backend (Cfg.Placer is fixed at
// construction), so every pooled entry is the same concrete type and
// Reinit restores as-new behavior — the per-backend arena reuse that keeps
// the ~20 per-cell scratch slices alive across blocks.
func (f *Flow) getPlacer() (place.Backend, error) {
	if p, ok := f.placers.Get().(place.Backend); ok {
		p.Reinit(f.placeOptions())
		return p, nil
	}
	return place.NewBackend(f.Cfg.Placer, f.placeOptions())
}

// getOptimizer returns a pooled optimizer reinitialized for cfg, or a fresh
// one when the pool is empty.
func (f *Flow) getOptimizer(cfg opt.Options) *opt.Optimizer {
	if o, ok := f.opts.Get().(*opt.Optimizer); ok {
		o.Reinit(f.D.Lib, f.Ex, cfg)
		return o
	}
	return opt.New(f.D.Lib, f.Ex, cfg)
}

// placeOptions derives per-run placer options.
func (f *Flow) placeOptions() place.Options {
	po := f.Cfg.Place
	po.TargetUtil = f.Cfg.Util + 0.12 // legalization headroom over sizing util
	if po.TargetUtil > 0.92 {
		po.TargetUtil = 0.92
	}
	po.Seed = f.Cfg.Seed
	return po
}

// normalizePorts rescales port locations proportionally into the block
// outline when they were assigned against a different (estimated) shape —
// block-level experiments attach ports using spec-estimated geometry, and a
// folded block's per-die outline differs from the 2D estimate. Relative
// positions (which edge, where along it) are preserved.
func normalizePorts(b *netlist.Block) {
	if len(b.Ports) == 0 {
		return
	}
	var maxX, maxY float64
	for i := range b.Ports {
		if b.Ports[i].Pos.X > maxX {
			maxX = b.Ports[i].Pos.X
		}
		if b.Ports[i].Pos.Y > maxY {
			maxY = b.Ports[i].Pos.Y
		}
	}
	out := b.Outline[0]
	sx, sy := 1.0, 1.0
	scaled := false
	if maxX > out.W() && maxX > 0 {
		sx = out.W() / maxX
		scaled = true
	}
	if maxY > out.H() && maxY > 0 {
		sy = out.H() / maxY
		scaled = true
	}
	if !scaled {
		return
	}
	for i := range b.Ports {
		b.Ports[i].Pos.X *= sx
		b.Ports[i].Pos.Y *= sy
	}
}

// repeaterBudget returns the free placement area (µm²) available for
// repeater insertion: the outline capacity at the legalization utilization
// ceiling minus everything already placed, with a reserve for clock buffers.
func (f *Flow) repeaterBudget(b *netlist.Block) float64 {
	const maxUtil = 0.80
	area, err := place.FreeRowArea(b, netlist.DieBottom)
	if err != nil {
		return 1
	}
	if b.Is3D {
		a1, err := place.FreeRowArea(b, netlist.DieTop)
		if err != nil {
			return 1
		}
		area += a1
	}
	free := area*maxUtil - b.CellArea(-1)
	// Reserve part of the free space for CTS buffers and legalization slop.
	free *= 0.85
	if free < 0 {
		free = 1 // effectively no repeaters; legalization still has to fit
	}
	return free
}

// repeaterBudgetPerDie splits the repeater budget per die for folded blocks:
// a die overflows individually, so each account is computed from that die's
// own free row capacity and placed cell area.
func (f *Flow) repeaterBudgetPerDie(b *netlist.Block) [2]float64 {
	const maxUtil = 0.80
	var out [2]float64
	for d := 0; d < 2; d++ {
		area, err := place.FreeRowArea(b, netlist.Die(d))
		if err != nil {
			out[d] = 1
			continue
		}
		free := area*maxUtil - b.CellArea(d)
		free *= 0.85
		if free < 1 {
			free = 1
		}
		out[d] = free
	}
	return out
}

// Profile converts a block result into the folding-criteria profile
// (core.BlockProfile) with the given copy count.
func (r *BlockResult) Profile(copies int) (name string, totalMW, netMW float64, longWires int) {
	return r.Block.Name, r.Power.TotalMW, r.Power.NetMW, r.Stats.NumLongWire
}

// VthOf exposes the library flavor used by the flow for reports.
func (f *Flow) VthOf() tech.VthClass {
	if f.Cfg.UseHVT {
		return tech.HVT
	}
	return tech.RVT
}
