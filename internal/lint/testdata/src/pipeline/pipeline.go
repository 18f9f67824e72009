// Package pipelinefix is a lint fixture: a package whose stage* functions
// are pipeline stage entry points that must only be invoked through the
// pipeline executor, yet some code calls them directly.
package pipelinefix

import "context"

// plan mimics pipeline.Plan: it collects stage funcs for an executor.
type plan struct {
	runs []func(context.Context) error
}

func (p *plan) add(run func(context.Context) error) { p.runs = append(p.runs, run) }

// state owns the stage methods.
type state struct{ n int }

// stagePrepare is a stage entry point.
func (s *state) stagePrepare(ctx context.Context) error { s.n++; return nil }

// stagePlace is a stage entry point that shortcuts into its upstream
// neighbor instead of going through the plan: flagged.
func (s *state) stagePlace(ctx context.Context) error {
	return s.stagePrepare(ctx) // want `call to \(\*fixture/pipeline\.state\)\.stagePrepare: stages run only through the pipeline executor`
}

// stageFree is a package-level stage entry point.
func stageFree(ctx context.Context) error { return nil }

// register references stages as method/function values — how stages are
// registered into a plan. References are not calls: allowed.
func register(s *state) *plan {
	p := &plan{}
	p.add(s.stagePrepare)
	p.add(s.stagePlace)
	p.add(stageFree)
	return p
}

// driver invokes a package-level stage directly: flagged.
func driver(ctx context.Context) error {
	return stageFree(ctx) // want `call to fixture/pipeline\.stageFree: stages run only through the pipeline executor`
}

// stageless shares the prefix word but is not a stage entry point (no
// capitalized phase name follows); calling it is fine.
func stageless(ctx context.Context) error { return nil }

// helper calls the non-stage function: not flagged.
func helper(ctx context.Context) error { return stageless(ctx) }
