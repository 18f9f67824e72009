// Command fold3d runs the paper's experiments: every table and figure of
// "On Enhancing Power Benefits in 3D ICs" (DAC 2014) can be regenerated
// individually or all at once. Experiments and the per-block flow inside
// each chip build fan out across -workers; reports always print in the
// same registry order with byte-identical content at any worker count.
//
// Usage:
//
//	fold3d -list                       # print the experiment registry
//	fold3d -exp table2                 # one experiment
//	fold3d -exp table3,table5          # a comma-separated subset
//	fold3d -exp all -scale 1000        # everything
//	fold3d -exp fig8 -svgdir ./out     # dump layout SVGs
//	fold3d -exp all -workers 1         # force the sequential path
//	fold3d -placer analytical          # analytical placement backend
//	fold3d -exp headtohead             # backends head-to-head, all styles
//	fold3d -exp table5 -progress       # live per-block status on stderr
//	fold3d -exp thermal -thermal       # in-loop thermal planning + vias
//	fold3d -thermal -tmax 85           # "will it melt" verdict at 85 C
//	fold3d -exp all -cachedir ./cache  # spill block artifacts to disk
//	fold3d -exp all -cachestats        # print cache hit/miss counters
//
// Ctrl-C cancels the run promptly; partial results are discarded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"fold3d/internal/exp"
	"fold3d/internal/flow"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
)

// main delegates to run so deferred profile writers fire before the process
// exits (os.Exit skips defers).
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body. args are the command-line arguments
// after the program name; reports go to stdout, diagnostics to stderr. It
// returns the process exit status: 0 on success, 1 when an experiment
// fails, 2 for a bad flag or option.
func run(args []string, stdout, stderr io.Writer) int {
	expNames := make([]string, 0, 18)
	for _, g := range exp.Generators() {
		expNames = append(expNames, g.Name)
	}
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which      = fs.String("exp", "all", "experiment name(s), comma-separated: "+strings.Join(expNames, "|")+"|all")
		list       = fs.Bool("list", false, "print the experiment registry (sorted) and exit")
		scale      = fs.Float64("scale", 1000, "netlist scale factor (cells per modeled cell)")
		seed       = fs.Uint64("seed", 42, "random seed")
		placer     = fs.String("placer", "", "placement backend: "+strings.Join(place.BackendNames(), "|")+" (default "+place.DefaultBackend+")")
		svgdir     = fs.String("svgdir", "", "directory to write layout SVGs and netlist artifacts")
		workers    = fs.Int("workers", 0, "parallel workers across experiments and per chip build (0 = one per CPU, 1 = sequential)")
		progress   = fs.Bool("progress", false, "stream live per-block flow status to stderr")
		cachedir   = fs.String("cachedir", "", "spill the block-artifact cache to this directory (warm-starts later runs)")
		cachemb    = fs.Int("cachebudget", 512, "in-memory artifact-cache budget in MiB, 0 = unbounded; evicted entries fall back to -cachedir or recompute")
		cachestats = fs.Bool("cachestats", false, "print artifact-cache hit/miss counters to stderr on exit")
		thermalOn  = fs.Bool("thermal", false, "enable in-loop thermal planning: solve block temperature fields and insert thermal vias")
		tmax       = fs.Float64("tmax", 0, "peak-temperature budget in C for -thermal (0 = no budget); the thermal report marks styles over budget as melting")
		thermvias  = fs.Int("thermalvias", 0, "thermal-via insertion budget for -thermal (0 = defaults)")
		cpuprof    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof    = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		listExperiments(stdout)
		return 0
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(stderr, "fold3d:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "fold3d:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "fold3d:", err)
			}
		}()
	}
	if *memprof != "" {
		defer func() {
			if err := writeMemProfile(*memprof); err != nil {
				fmt.Fprintln(stderr, "fold3d:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := exp.Config{Scale: *scale, Seed: *seed, Workers: *workers, Placer: *placer}
	if *thermalOn {
		cfg.Thermal = flow.ThermalConfig{Enable: true, TMaxBudgetC: *tmax, ViaBudget: *thermvias}
	} else if *tmax != 0 || *thermvias != 0 {
		fmt.Fprintln(stderr, "fold3d: -tmax/-thermalvias require -thermal")
		return 2
	}
	// Fail fast on bad options — in particular an unknown -placer or an
	// impossible -tmax — with the conventional flag-error exit status,
	// before any work starts.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "fold3d:", err)
		return 2
	}
	// RunAll would create a memory-only cache itself; build it here so the
	// disk spill and the -cachestats report see the same instance.
	cfg.Cache = pipeline.NewCache(pipeline.CacheOptions{Dir: *cachedir, MaxBytes: int64(*cachemb) << 20})
	if *cachestats {
		defer func() {
			fmt.Fprintf(stderr, "fold3d: cache %s\n", cfg.Cache.Stats())
		}()
	}
	if *progress {
		cfg.Progress = func(p flow.Progress) {
			if p.Block != "" {
				fmt.Fprintf(stderr, "  [%s %d/%d] %s\n", p.Stage, p.Done, p.Total, p.Block)
			} else {
				fmt.Fprintf(stderr, "  [%s]\n", p.Stage)
			}
		}
	}

	var names []string
	if *which != "all" {
		names = strings.Split(*which, ",")
	}

	t0 := time.Now()
	// onDone streams each failure as it happens (the pool only returns the
	// lowest-index error; later ones would be lost). reported tracks that,
	// so the final error isn't printed twice. Callbacks are serialized.
	reported := false
	onDone := func(r *exp.Result, err error) {
		switch {
		case err != nil:
			reported = true
			fmt.Fprintf(stderr, "fold3d: %v\n", err)
		case *progress:
			fmt.Fprintf(stderr, "[%s done at %s]\n", r.Name, time.Since(t0).Round(time.Millisecond))
		}
	}
	results, err := exp.RunAll(ctx, cfg, names, onDone)
	for _, r := range results {
		if r == nil {
			continue
		}
		fmt.Fprintln(stdout, strings.TrimRight(r.Report, "\n"))
		fmt.Fprintf(stdout, "[%s]\n\n", r.Name)
		if *svgdir != "" && len(r.Files) > 0 {
			if werr := writeFiles(stdout, *svgdir, r.Files); werr != nil {
				fmt.Fprintln(stderr, "fold3d:", werr)
				return 1
			}
		}
	}
	if err != nil {
		if !reported {
			fmt.Fprintln(stderr, "fold3d:", err)
		}
		return 1
	}
	fmt.Fprintf(stderr, "fold3d: %d experiment(s) in %s\n", len(results), time.Since(t0).Round(time.Millisecond))
	return 0
}

// listExperiments prints the registry sorted by name, one "name\tdoc" line
// each, so scripts can discover the valid -exp values, followed by the
// registered placement backends (the valid -placer values).
func listExperiments(w io.Writer) {
	gens := exp.Generators()
	sort.Slice(gens, func(i, j int) bool { return gens[i].Name < gens[j].Name })
	for _, g := range gens {
		fmt.Fprintf(w, "%-10s %s\n", g.Name, g.Doc)
	}
	fmt.Fprintf(w, "placement backends (-placer): %s (default %s)\n",
		strings.Join(place.BackendNames(), ", "), place.DefaultBackend)
}

// writeMemProfile dumps the post-GC heap profile, so what it shows is live
// retention rather than transient garbage.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// writeFiles dumps a result's artifacts into dir in sorted-name order so
// the "wrote ..." log on w is deterministic.
func writeFiles(w io.Writer, dir string, files map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(files[name]), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", path)
	}
	return nil
}
