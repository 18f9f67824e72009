// Command fold3dbench is fold3d's standing benchmark. Four workloads run
// end to end through the fold3d and fold3dd binaries with tracing off; a
// separate traced run breaks each workload down by layer from outside the
// flow. Every output is checked against committed golden digests.
//
// Run it from the repository root through run.sh, which builds it and the
// binaries it measures under .bench_build/:
//
//	bash cmd/fold3dbench/run.sh -workload chip-s100 -seed 42 -seconds 20 -trace 0
//	bash cmd/fold3dbench/run.sh -workload serve-fleet -trace 1
//	bash cmd/fold3dbench/run.sh -compare parent.jsonl change.jsonl
//	bash cmd/fold3dbench/run.sh -write-golden
//
// A run prints every metric by name with its unit, appends its full record
// as one JSON line to the result file (-out), and ends with one JSON line:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}},
// holding the end-to-end metrics with -trace 0 and the per-layer metrics
// with -trace 1. BENCHMARK.json at the repository root lists the metrics,
// the workloads and each end-to-end metric's regression bound; README.md
// explains them.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runDeadline bounds one measured run after the build, so the benchmark
// exits well within three minutes even when the program under test hangs.
const runDeadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fold3dbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: chip-s100|all-s300-warm|thermal-s1000|serve-fleet")
		seed    = fs.Uint64("seed", 42, "workload seed: fold3d's -seed, or the order of the serve requests")
		seconds = fs.Float64("seconds", 20, "how long the measured reps run; serve-fleet offers 45 requests per second of it")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
		root    = fs.String("root", ".", "repository root to build and measure")
		out     = fs.String("out", "", "append the run's record to this JSON Lines file (default <root>/.bench_build/results.jsonl)")
		cmp     = fs.Bool("compare", false, "compare two result files, parent then change, under the bounds of <root>/BENCHMARK.json: -compare A.jsonl B.jsonl")
		golden  = fs.Bool("write-golden", false, "regenerate testdata/golden.json from the current code")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(fs.Args(), filepath.Join(*root, "BENCHMARK.json"), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !*golden && (!ok || (*trace != 0 && *trace != 1)) {
		fmt.Fprintf(stderr, "fold3dbench: need -workload (one of the four) and -trace 0 or 1\n")
		return 2
	}

	e, err := newEnv(*root)
	if err != nil {
		fmt.Fprintln(stderr, "fold3dbench:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(e.work) }() // scratch only
	if err := e.build(context.Background()); err != nil {
		fmt.Fprintln(stderr, "fold3dbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if *golden {
		if err := writeGolden(ctx, e); err != nil {
			fmt.Fprintln(stderr, "fold3dbench:", err)
			return 1
		}
		return 0
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "fold3dbench:", err)
		return 1
	}

	var rep *report
	defs := e2eMetrics
	switch {
	case *trace == 1:
		rep, defs = runTraced(ctx, e, w, *seed, *seconds, limits{}, g), layerMetrics
	case w.serve:
		rep = newReport(w.name, *seed, *seconds, 0)
		runServe(ctx, e, rep, *seed, *seconds, limits{setups: w.setups}, g, false)
	default:
		rep = runCLI(ctx, e, w, *seed, *seconds, limits{setups: w.setups}, g)
	}
	if *out == "" {
		*out = filepath.Join(e.root, ".bench_build", "results.jsonl")
	}
	if err := appendRecord(*out, rep); err != nil {
		fmt.Fprintln(stderr, "fold3dbench:", err)
		return 1
	}
	if err := rep.write(stdout, defs); err != nil {
		fmt.Fprintln(stderr, "fold3dbench:", err)
		return 1
	}
	return 0
}

// runCompare implements -compare; it exits 1 on a regression.
func runCompare(files []string, specPath string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "fold3dbench: -compare needs two result files, the parent's then the change's")
		return 2
	}
	s, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "fold3dbench:", err)
		return 1
	}
	var sides [2][]*report
	for i, f := range files {
		if sides[i], err = readRecords(f); err != nil {
			fmt.Fprintln(stderr, "fold3dbench:", err)
			return 1
		}
	}
	if compare(stdout, s, sides[0], sides[1]) {
		return 1
	}
	return 0
}
