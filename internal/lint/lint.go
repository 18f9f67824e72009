// Package lint is fold3d's in-tree static-analysis engine. It enforces the
// repository's determinism and API-hygiene policy (DESIGN.md §Lint) using
// only the standard library: go/parser builds ASTs, go/types resolves types
// through a small in-module import resolver, and each check walks the typed
// syntax reporting findings with file:line positions.
//
// The suite exists because the paper reproduction promises bit-identical
// results for a given seed; a single unsorted map iteration feeding the
// placer, partitioner or a report silently breaks that promise without
// failing any test. fold3dlint turns the policy into a build gate.
//
// Intentional violations are silenced in place with a directive comment on
// the offending line (or the line above it):
//
//	//lint:ignore <check> <reason>
//
// The reason is mandatory; an ignore without one is itself a finding.
package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"time"

	"fold3d/internal/pool"
)

// Finding is one diagnostic produced by a check.
type Finding struct {
	// Check is the name of the check that produced the finding.
	Check string
	// Pos locates the finding (file, line, column).
	Pos token.Position
	// Message describes the problem and the expected fix.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Check is a named analysis pass over one typed package.
type Check struct {
	// Name identifies the check in findings and ignore directives.
	Name string
	// Doc is a one-line description shown by the CLI.
	Doc string
	// Run inspects pkg and returns raw findings (ignore directives are
	// applied by the engine, not by individual checks).
	Run func(cfg *Config, pkg *Package) []Finding
}

// Config tunes check scoping. The zero value runs nothing useful; use
// DefaultConfig for the repository policy.
type Config struct {
	// AlgoPackages lists import-path suffixes of algorithm packages in
	// which the determinism check forbids ambient randomness and
	// environment access.
	AlgoPackages []string
	// PanicAllow lists function names (rendered as pkgpath.Func or
	// pkgpath.(*Type).Method) that may call panic. Functions whose name
	// starts with "Must" are always allowed, per Go convention.
	PanicAllow []string
	// GoroutineAllow lists import-path suffixes of the packages permitted
	// to start goroutines. Everywhere else a bare go statement is a
	// determinism finding: ad-hoc concurrency bypasses the worker pool's
	// deterministic merge and error selection.
	GoroutineAllow []string
	// CtxPackages lists import-path suffixes of the service-layer packages
	// in which the ctxflow check requires every blocking operation to be
	// guarded by a received context.Context on all CFG paths. These are the
	// packages sitting between a caller's cancellation and the
	// deterministic core: a dropped ctx there turns shutdown into a hang.
	CtxPackages []string
	// IndexedScanOnly lists import-path suffixes of packages whose
	// legalization and blockage code must answer per-candidate queries
	// through a spatial index. There, a linear scan over a block's Cells
	// nested inside another loop is O(cells) per query — quadratic over
	// the block — and is exactly the pattern the scaling pass replaced
	// with the row-CSR buckets, the lane SoA mirrors and the TSV site
	// grid. Single flat passes (index builds, seeding, accumulations)
	// stay allowed: only a Cells scan inside an enclosing loop is
	// flagged.
	IndexedScanOnly []string
	// CallBans lists the calls the apiguard check forbids, each inside its
	// own set of packages.
	CallBans []CallBan
}

// CallBan forbids calls to matching functions inside a set of packages.
// Callee matches the callee's types.Func.FullName: pkgpath.Func for a
// function, (*pkgpath.Type).Method or pkgpath.Type.Method for a method. A
// pattern ending in `pkg\.Name$` thus bans a package-level function and
// leaves every same-named method alone.
type CallBan struct {
	// Scope lists import-path suffixes of the packages the ban applies to.
	Scope []string
	// Callee matches the full name of each banned function.
	Callee *regexp.Regexp
	// Reason says why the call is banned and what to call instead; the
	// finding prints it after the callee's full name.
	Reason string
}

// DefaultConfig returns the scoping policy enforced on the fold3d tree.
func DefaultConfig() *Config {
	return &Config{
		AlgoPackages: []string{
			"internal/core",
			"internal/floorplan",
			"internal/partition",
			"internal/place",
			"internal/place/analytical",
			"internal/route",
			"internal/power",
			"internal/sta",
			"internal/thermal",
			"internal/exp",
			"internal/flow",
		},
		PanicAllow: []string{
			// rng.Intn mirrors math/rand's documented contract.
			"fold3d/internal/rng.(*R).Intn",
		},
		GoroutineAllow: []string{
			// The worker pool is the one sanctioned goroutine spawner; its
			// per-index result slots keep parallel runs byte-identical.
			"internal/pool",
			// The server exemption (DESIGN.md §12): the fold3dd job
			// scheduler and the daemon's accept loop are long-lived service
			// goroutines above the determinism boundary — results flow only
			// through exp.RunAll, which stays on the pool.
			"internal/jobs",
			"cmd/fold3dd",
		},
		CtxPackages: []string{
			// The job manager, HTTP daemon, worker pool and public facade
			// all accept a caller context; each hand-off between them is a
			// blocking point that must stay cancelable.
			"internal/jobs",
			"internal/server",
			"internal/pool",
			"pkg/fold3d",
		},
		IndexedScanOnly: []string{
			// The placer's legalization, spreading and TSV planning are
			// the scaling-pass hot paths: per-query work there must go
			// through the spatial index, never a nested Cells scan.
			"internal/place",
		},
		CallBans: []CallBan{
			{
				// The optimizer's analyze loop is the hot consumer of timing;
				// it owns an Engine and must mark-and-update, never
				// full-build.
				Scope:  []string{"internal/opt"},
				Callee: regexp.MustCompile(`internal/sta\.Analyze$`),
				Reason: "the one-shot wrapper rebuilds the timing graph from scratch; this package must reuse its persistent sta.Engine (MarkCellDirty/MarkNetDirty + Engine.Analyze)",
			},
			{
				// The flow's phases are registered pipeline stages. Stage
				// names are unexported, so only same-package calls can match.
				Scope:  []string{"internal/flow"},
				Callee: regexp.MustCompile(`\.stage[A-Z]\w*$`),
				Reason: "stages run only through the pipeline executor (register into a pipeline.Plan); a direct call skips the stage DAG, its cancellation checks and the cache's input fingerprints",
			},
			{
				// The flow selects placement backends by Config.Placer: the
				// constructor of internal/place or of any backend under it
				// would hard-wire one backend.
				Scope:  []string{"internal/flow"},
				Callee: regexp.MustCompile(`internal/place(/[^.]+)?\.New$`),
				Reason: "select placement backends through the registry (place.NewBackend), which validates the name and keys the cache per backend",
			},
		},
	}
}

// AllChecks returns the full suite in a stable order.
func AllChecks() []*Check {
	return []*Check{
		DeterminismCheck(),
		MapIterCheck(),
		FloatCmpCheck(),
		ErrDropCheck(),
		APIGuardCheck(),
		NondetFlowCheck(),
		CtxFlowCheck(),
		LockBalanceCheck(),
	}
}

// CheckByName returns the named check, or nil.
func CheckByName(name string) *Check {
	for _, c := range AllChecks() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Timing records the cumulative wall-clock time one check spent across all
// packages of a run.
type Timing struct {
	// Check is the check name.
	Check string
	// Elapsed is the check's summed run time over every package.
	Elapsed time.Duration
}

// Run executes checks over pkgs, filters findings through //lint:ignore
// directives, and returns the remainder sorted by position.
func Run(cfg *Config, pkgs []*Package, checks []*Check) []Finding {
	out, _ := RunTimed(cfg, pkgs, checks)
	return out
}

// RunTimed is Run plus per-check cumulative timings (sorted slowest
// first). Every (package, check) pair runs as an independent pool task
// writing into its own slot; the merge walks slots in index order, so the
// output is identical to a sequential run regardless of scheduling.
func RunTimed(cfg *Config, pkgs []*Package, checks []*Check) ([]Finding, []Timing) {
	nc := len(checks)
	type cell struct {
		fs []Finding
		d  time.Duration
	}
	cells := make([]cell, len(pkgs)*nc)
	if nc > 0 {
		// Checks only read their package, so pairs are freely concurrent;
		// the tasks never fail and the context is never canceled.
		_ = pool.Run(context.Background(), 0, len(cells), func(_ context.Context, i int) error {
			p, c := pkgs[i/nc], checks[i%nc]
			start := time.Now()
			cells[i] = cell{fs: c.Run(cfg, p), d: time.Since(start)}
			return nil
		})
	}
	elapsed := make([]time.Duration, nc)
	var out []Finding
	for pi, p := range pkgs {
		ig := collectIgnores(p)
		for ci := range checks {
			cell := cells[pi*nc+ci]
			elapsed[ci] += cell.d
			for _, f := range cell.fs {
				if ig.covers(f) {
					continue
				}
				out = append(out, f)
			}
		}
		out = append(out, ig.malformed...)
	}
	timings := make([]Timing, nc)
	for ci, c := range checks {
		timings[ci] = Timing{Check: c.Name, Elapsed: elapsed[ci]}
	}
	sort.Slice(timings, func(i, j int) bool {
		if timings[i].Elapsed != timings[j].Elapsed {
			return timings[i].Elapsed > timings[j].Elapsed
		}
		return timings[i].Check < timings[j].Check
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out, timings
}

// ignoreKey identifies the target of one ignore directive.
type ignoreKey struct {
	file  string
	line  int
	check string
}

// ignoreSet holds the parsed //lint:ignore directives of one package.
type ignoreSet struct {
	keys      map[ignoreKey]bool
	malformed []Finding
}

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s*(.*)$`)

// collectIgnores parses every //lint:ignore directive in p. A directive
// suppresses findings of the named check on its own line, on every line of
// its comment group (the reason may wrap onto continuation lines), and on
// the statement that follows the group — ALL of its lines, so a finding
// anchored inside a multi-line call or literal is still covered.
func collectIgnores(p *Package) *ignoreSet {
	ig := &ignoreSet{keys: map[ignoreKey]bool{}}
	for _, file := range p.Files {
		spans := stmtSpans(p, file)
		for _, cg := range file.Comments {
			groupEnd := p.Fset.Position(cg.End()).Line
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				check, reason := m[1], strings.TrimSpace(m[2])
				if reason == "" {
					ig.malformed = append(ig.malformed, Finding{
						Check:   "ignore",
						Pos:     pos,
						Message: fmt.Sprintf("lint:ignore %s directive is missing a reason", check),
					})
					continue
				}
				last := groupEnd + 1
				// Directive-above form: extend over the whole statement
				// starting on the line after the group.
				if end := spans[groupEnd+1]; end > last {
					last = end
				}
				// End-of-line form on the first line of a multi-line
				// statement: extend over that statement too.
				if end := spans[pos.Line]; end > last {
					last = end
				}
				for line := pos.Line; line <= last; line++ {
					ig.keys[ignoreKey{pos.Filename, line, check}] = true
				}
			}
		}
	}
	return ig
}

// stmtSpans maps the starting line of each simple (body-less) statement in
// file to its ending line. Only statements that cannot contain a block are
// recorded, so a directive above an if or for never silently suppresses
// findings throughout the nested body.
func stmtSpans(p *Package, file *ast.File) map[int]int {
	spans := map[int]int{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.DeclStmt,
			*ast.SendStmt, *ast.GoStmt, *ast.DeferStmt, *ast.IncDecStmt:
			if containsFuncLit(n) {
				return true // a literal body is a block in disguise
			}
			start := p.Fset.Position(n.Pos()).Line
			end := p.Fset.Position(n.End()).Line
			if end > spans[start] {
				spans[start] = end
			}
		}
		return true
	})
	return spans
}

// containsFuncLit reports whether n nests a function literal.
func containsFuncLit(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			found = true
		}
		return !found
	})
	return found
}

// covers reports whether f is suppressed by a directive.
func (ig *ignoreSet) covers(f Finding) bool {
	return ig.keys[ignoreKey{f.Pos.Filename, f.Pos.Line, f.Check}]
}

// funcBodies invokes fn on every function body in file: declarations and
// literals, including literals nested inside other functions.
func funcBodies(file *ast.File, fn func(name string, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Name.Name, d.Body)
			}
		case *ast.FuncLit:
			fn("func literal", d.Body)
			// Return true so literals nested inside this one are visited.
		}
		return true
	})
}
