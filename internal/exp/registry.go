package exp

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"fold3d/internal/flow"
	"fold3d/internal/pipeline"
	"fold3d/internal/pool"
)

// Result is the uniform output of a registered generator: a printable
// report plus named artifact files (layout SVGs, Verilog/DEF/LEF dumps)
// keyed by output basename.
type Result struct {
	Name   string
	Report string
	Files  map[string]string
}

// Generator is one registered experiment: a table, figure, or ablation.
type Generator struct {
	Name string
	Doc  string
	Run  func(ctx context.Context, cfg Config) (*Result, error)
}

// addFile records an artifact, skipping empty content so callers can
// range over Files without filtering.
func (r *Result) addFile(name, content string) {
	if content == "" {
		return
	}
	if r.Files == nil {
		r.Files = make(map[string]string)
	}
	r.Files[name] = content
}

// generators is the registry in canonical (paper report) order.
var generators = []Generator{
	{"table1", "T2 block inventory and folding candidates", func(ctx context.Context, cfg Config) (*Result, error) {
		return &Result{Report: Table1().String()}, nil
	}},
	{"table2", "2D chip reference implementation per block", func(ctx context.Context, cfg Config) (*Result, error) {
		t, err := Table2(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: t.String()}, nil
	}},
	{"table3", "TSV and F2F via counts per chip style", func(ctx context.Context, cfg Config) (*Result, error) {
		_, report, err := Table3(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: report}, nil
	}},
	{"table4", "folding the L2 data bank (2D vs folded 3D)", func(ctx context.Context, cfg Config) (*Result, error) {
		fc, err := Table4(ctx, cfg)
		if err != nil {
			return nil, err
		}
		report := "== Table 4: folding the L2 data bank ==\n" + fc.String() + "\n" +
			"paper: footprint -48.4%, WL -6.4%, buffers -33.5%, power -5.1% (memory-dominated)\n"
		return &Result{Report: report}, nil
	}},
	{"table5", "full-chip power across all five styles", func(ctx context.Context, cfg Config) (*Result, error) {
		t, err := Table5(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: t.String()}, nil
	}},
	{"fig2", "CCX 2D fragmentation vs folded 3D", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := Figure2(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res := &Result{Report: r.String()}
		res.addFile("fig2-ccx-2d.svg", r.SVG2D)
		res.addFile("fig2-ccx-3d.svg", r.SVG3D)
		return res, nil
	}},
	{"fig3", "SPC second-level vs whole-block folding", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := Figure3(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: r.String()}, nil
	}},
	{"fig4", "merged-die netlist handoff artifacts", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := Figure4(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res := &Result{Report: r.String()}
		res.addFile("fig4-merged.v", r.Verilog)
		res.addFile("fig4-merged.def", r.DEF)
		res.addFile("fig4-merged.lef", r.LEF)
		res.addFile("fig4-nets3d.txt", r.Nets3D)
		return res, nil
	}},
	{"fig5", "L2 tag bank under F2F bonding", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := Figure5(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res := &Result{Report: r.String()}
		res.addFile("fig5-l2t-f2f.svg", r.SVG)
		return res, nil
	}},
	{"fig6", "per-block F2B vs F2F folding outcomes", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := Figure6(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res := &Result{Report: r.String()}
		for _, row := range r.Rows {
			res.addFile("fig6-"+row.Block+"-f2b.svg", row.SVGF2B)
			res.addFile("fig6-"+row.Block+"-f2f.svg", row.SVGF2F)
		}
		return res, nil
	}},
	{"fig7", "power breakdown of folded blocks", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := Figure7(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: r.String()}, nil
	}},
	{"fig8", "chip-level layouts of all five styles", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := Figure8(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res := &Result{Report: r.String()}
		names := make([]string, 0, len(r.SVGs))
		for name := range r.SVGs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			res.addFile("fig8-"+name+".svg", r.SVGs[name])
		}
		return res, nil
	}},
	{"dualvth", "dual-Vth leakage recovery ablation", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := AblationDualVth(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: r.String()}, nil
	}},
	{"macromode", "macro placement mode ablation", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := AblationMacroMode(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: r.String()}, nil
	}},
	{"criteria", "folding-criteria gate ablation", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := AblationFoldingCriteria(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: r.String()}, nil
	}},
	{"thermal", "steady-state thermal study across styles", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := ThermalStudy(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: r.String()}, nil
	}},
	{"coupling", "TSV coupling capacitance ablation", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := AblationTSVCoupling(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: r.String()}, nil
	}},
	{"rsmt", "RSMT vs HPWL wirelength model ablation", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := AblationRSMT(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: r.String()}, nil
	}},
	{"headtohead", "placement backends head-to-head across all five styles", func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := HeadToHead(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: r.String()}, nil
	}},
}

// Generators returns all registered experiments in canonical order. The
// returned slice is a copy; callers may reorder it freely.
func Generators() []Generator {
	out := make([]Generator, len(generators))
	copy(out, generators)
	return out
}

// ByName looks up a registered generator.
func ByName(name string) (Generator, bool) {
	for _, g := range generators {
		if g.Name == name {
			return g, true
		}
	}
	return Generator{}, false
}

// RunAll runs the named generators (nil or empty names = all of them),
// fanning out across cfg.Workers via the shared pool. Results come back
// in registry order regardless of completion order, so output is
// deterministic at any worker count. onDone, when non-nil, is invoked
// (serialized) as each generator finishes — its call order is
// scheduler-dependent, the returned slice is not. On error the
// lowest-registry-index failure is returned along with every result
// that did complete (failed or skipped slots are nil).
//
// Configuration and names are validated up front (Config.Validate,
// ValidateNames): a bad scale, negative worker count or unknown experiment
// name fails before any generator runs, with an error wrapping
// errs.ErrBadRequest. Progress callbacks are serialized across the whole
// fan-out — never concurrent, even when several generators run flows at
// once — and each event carries the name of the generator that produced it
// in Progress.Experiment.
func RunAll(ctx context.Context, cfg Config, names []string, onDone func(*Result, error)) ([]*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateNames(names); err != nil {
		return nil, err
	}
	var gens []Generator
	if len(names) == 0 {
		gens = Generators()
	} else {
		gens = make([]Generator, 0, len(names))
		for _, name := range names {
			g, _ := ByName(name)
			gens = append(gens, g)
		}
	}
	// The tables and figures ask for the same chips over and over
	// (table2's 2D chip is table3's, fig8's, thermal's and headtohead's),
	// so one chip memo serves the whole run: each distinct chip is built
	// once, by whichever generator asks first. Below it, one artifact
	// cache shares block work between distinct chips (a block implemented
	// alike in two styles, a fold both bondings use). Callers wanting
	// cross-RunAll sharing or the disk spill pass their own cache; chips
	// are never shared across runs.
	cfg.memo = newChipMemo()
	if cfg.Cache == nil {
		cfg.Cache = pipeline.NewCache(pipeline.CacheOptions{MaxBytes: DefaultCacheBudget})
	}
	// Serialize progress callbacks across generators under one mutex (each
	// flow only serializes its own events; concurrent generators each carry
	// their own flow) and tag every event with its generator name, so a
	// consumer multiplexing the stream — the fold3dd job event feed, the
	// -progress stderr log — can attribute events without guessing.
	user := cfg.Progress
	var pmu sync.Mutex
	progressFor := func(name string) func(flow.Progress) {
		if user == nil {
			return nil
		}
		return func(p flow.Progress) {
			pmu.Lock()
			defer pmu.Unlock()
			p.Experiment = name
			user(p)
		}
	}
	results := make([]*Result, len(gens))
	var mu sync.Mutex
	err := pool.Run(ctx, cfg.Workers, len(gens), func(ctx context.Context, i int) error {
		gcfg := cfg
		gcfg.Progress = progressFor(gens[i].Name)
		r, err := gens[i].Run(ctx, gcfg)
		if err != nil {
			err = fmt.Errorf("exp: %s: %w", gens[i].Name, err)
		} else {
			r.Name = gens[i].Name
			results[i] = r
		}
		if onDone != nil {
			mu.Lock()
			onDone(r, err)
			mu.Unlock()
		}
		return err
	})
	return results, err
}
