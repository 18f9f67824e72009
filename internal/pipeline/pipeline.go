// Package pipeline is the stage-graph engine of the fold3d flow: it turns
// the formerly monolithic build into an explicit dependency DAG of typed
// stages, each with a deterministic input fingerprint, and backs the graph
// with a content-addressed artifact cache so that identical work — the same
// stage over the same inputs under the same configuration and seed stream —
// is computed once and reused, across worker counts, design styles and
// whole experiment runs.
//
// The model has three pieces:
//
//   - Stage: one named pass (floorplan, place, extract, STA, ...) with a Run
//     function and a Key function that feeds exactly the configuration the
//     stage reads into the fingerprint. Stages never call each other; they
//     are registered into a Plan and invoked only by the Executor (the
//     fold3dlint stage-call ban enforces this in internal/flow).
//
//   - Plan: an ordered DAG of stages over one input artifact. Fingerprints
//     chain: a stage's fingerprint is a content hash of (schema version,
//     stage name, the stage's key material, the fingerprints of its
//     upstream stages — or the plan input for root stages). The fingerprint
//     of the plan's sink stages is the cache key of the plan's output
//     artifact, so any change to any upstream input, option or code version
//     produces a different key.
//
//   - Executor: runs a plan. With a cache attached and an ArtifactSpec
//     declared, a cache hit restores the artifact without running any stage;
//     a miss runs every stage in registration order (registration order is a
//     topological order by construction — a stage's dependencies must be
//     added before it) and stores the captured artifact. A restored artifact
//     is byte-identical to recomputation; the flow's TestCacheEquivalence
//     property test pins that down end to end.
//
// Determinism rules carried over from the rest of the repo: the executor
// spawns no goroutines (parallelism stays in internal/pool at the plan
// fan-out level), runs stages in a fixed order, and checks cancellation
// between stages exactly like the legacy flow checked it between phases.
package pipeline

import (
	"context"
	"fmt"

	"fold3d/internal/pool"
)

// SchemaVersion is folded into every fingerprint and into the on-disk
// artifact header. Bump it whenever a stage's semantics, an artifact
// layout, or the hashing recipe changes, so stale cache entries (in memory
// across library updates cannot happen, but on disk they can) miss instead
// of resurfacing results of older code.
const SchemaVersion = 2

// Stage is one registered pass of a plan.
type Stage struct {
	// Name identifies the stage within its plan and is folded into the
	// fingerprint chain.
	Name string
	// After lists the names of stages this stage depends on. Every listed
	// stage must already be registered in the plan. Stages with an empty
	// After depend on the plan input.
	After []string
	// Key writes the configuration material this stage actually reads
	// (options, seeds, mode flags) into the hasher. It must be exhaustive:
	// any input that can change the stage's output and is not already part
	// of the plan input or an upstream artifact belongs here. A nil Key
	// contributes only the stage name.
	Key func(h *Hasher)
	// Run performs the work. It must be deterministic given the fingerprint
	// inputs. Run is invoked only by the Executor.
	Run func(ctx context.Context) error
}

// Plan is an ordered DAG of stages over one input artifact.
type Plan struct {
	// Name labels the plan (diagnostics only; not part of fingerprints, so
	// identical work under different labels still shares cache entries).
	Name string

	stages []Stage
	index  map[string]int
	input  Fingerprint
}

// NewPlan returns an empty plan with the given diagnostic name.
func NewPlan(name string) *Plan {
	return &Plan{Name: name, index: map[string]int{}}
}

// SetInput fixes the fingerprint of the plan's input artifact (for the
// flow: the content hash of the block netlist plus the seed stream id).
// Root stages chain from it.
func (p *Plan) SetInput(fp Fingerprint) { p.input = fp }

// Add registers a stage. Dependencies must already be registered — this
// makes registration order a valid topological order and rules out cycles
// by construction.
func (p *Plan) Add(s Stage) error {
	if s.Name == "" {
		return fmt.Errorf("pipeline: plan %s: stage with empty name", p.Name)
	}
	if _, dup := p.index[s.Name]; dup {
		return fmt.Errorf("pipeline: plan %s: duplicate stage %q", p.Name, s.Name)
	}
	if s.Run == nil {
		return fmt.Errorf("pipeline: plan %s: stage %q has no Run", p.Name, s.Name)
	}
	for _, dep := range s.After {
		if _, ok := p.index[dep]; !ok {
			return fmt.Errorf("pipeline: plan %s: stage %q depends on unregistered %q", p.Name, s.Name, dep)
		}
	}
	p.index[s.Name] = len(p.stages)
	p.stages = append(p.stages, s)
	return nil
}

// MustAdd is Add for statically-known stage tables, where a registration
// error is a programming bug caught by the first test that builds the plan.
func (p *Plan) MustAdd(s Stage) {
	if err := p.Add(s); err != nil {
		panic(err)
	}
}

// Stages returns the registered stage names in execution order.
func (p *Plan) Stages() []string {
	out := make([]string, len(p.stages))
	for i := range p.stages {
		out[i] = p.stages[i].Name
	}
	return out
}

// Fingerprint computes the plan's cache key: the chained content hash of
// every stage (schema version, stage name, key material, upstream
// fingerprints) reduced over the sink stages. Two plans have equal
// fingerprints iff they would compute byte-identical artifacts.
func (p *Plan) Fingerprint() Fingerprint {
	fps := make([]Fingerprint, len(p.stages))
	isDep := make([]bool, len(p.stages))
	for i := range p.stages {
		s := &p.stages[i]
		h := NewHasher()
		h.Int(SchemaVersion)
		h.Str(s.Name)
		if s.Key != nil {
			s.Key(h)
		}
		if len(s.After) == 0 {
			h.Str(string(p.input))
		}
		for _, dep := range s.After {
			di := p.index[dep]
			isDep[di] = true
			h.Str(string(fps[di]))
		}
		fps[i] = h.Sum()
	}
	// Reduce over sinks (stages no other stage depends on) in registration
	// order, so every stage's fingerprint reaches the key through some path.
	h := NewHasher()
	h.Int(SchemaVersion)
	for i := range p.stages {
		if !isDep[i] {
			h.Str(string(fps[i]))
		}
	}
	return h.Sum()
}

// ArtifactSpec declares how a plan's output is captured into the cache and
// restored from it. A nil spec, a spec without a Codec, or a nil Executor
// cache runs the plan uncached.
type ArtifactSpec struct {
	// Codec encodes the artifact for every cache tier, memory included.
	Codec *Codec
	// Capture builds the cacheable artifact after a successful cold run.
	// The cache encodes it before Run returns, so Capture may return live
	// state.
	Capture func() (Artifact, error)
	// Restore installs a cache hit. The artifact is a fresh decode owned by
	// the callee. A Restore error falls back to recomputation.
	Restore func(Artifact) error
}

// Executor runs plans against an optional shared artifact cache.
type Executor struct {
	// Cache, when non-nil, is consulted before running a plan with an
	// ArtifactSpec and filled after a cold run. The cache is safe for
	// concurrent use, so one Executor value per call site is fine.
	Cache *Cache
}

// Run executes the plan. With a cache and a spec with a codec, a hit
// restores the cached artifact and runs nothing; a miss (or a failed
// restore) runs every stage in registration order with a cancellation check
// between stages, then captures and stores the artifact.
//
// Misses are single-flight per fingerprint: while one Run computes a plan,
// a concurrent Run of an equal plan waits for it and then restores its
// artifact (see Cache.acquire). This cannot deadlock, because no cached
// plan runs another cached plan: an owner's stages never wait on a claim.
func (e *Executor) Run(ctx context.Context, p *Plan, spec *ArtifactSpec) error {
	var key string
	cached := e.Cache != nil && spec != nil && spec.Codec != nil
	if cached {
		key = string(p.Fingerprint())
		art, hit, err := e.Cache.acquire(ctx, key, spec.Codec)
		if err != nil {
			return err
		}
		if !hit {
			defer e.Cache.release(key)
		} else if err := spec.Restore(art); err == nil {
			return nil
		}
		// A restore failure means the artifact (or its decode) does not
		// fit this plan; recompute without owning the key. The cold path
		// below overwrites the entry with a freshly captured artifact.
	}
	for i := range p.stages {
		if err := pool.Canceled(ctx); err != nil {
			return err
		}
		if err := p.stages[i].Run(ctx); err != nil {
			return err
		}
	}
	if cached && spec.Capture != nil {
		art, err := spec.Capture()
		if err != nil {
			return fmt.Errorf("pipeline: plan %s: capturing artifact: %w", p.Name, err)
		}
		e.Cache.Put(key, art, spec.Codec)
	}
	return nil
}
