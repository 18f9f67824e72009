package exp

import (
	"context"
	"sync"

	"fold3d/internal/flow"
	"fold3d/internal/pool"
	"fold3d/internal/t2"
)

// chipVariant names one full-chip build: the design style, the library
// flavor and the placement backend. It is the whole parameter list of
// Config.chip; every other input of a chip build (scale, seed, thermal
// planning, the flow defaults) is a Config field that one RunAll holds
// fixed, so within a run two equal variants are the same chip.
type chipVariant struct {
	Style  t2.Style
	UseHVT bool
	// Placer is a resolved backend name, never empty, so the default
	// backend asked for by name and by omission is one variant.
	Placer string
}

// variant returns the chip variant of style under c's placer and the
// RVT-only library.
func (c Config) variant(style t2.Style) chipVariant {
	return chipVariant{Style: style, Placer: c.placer()}
}

// chip builds the full chip of variant v and returns its summary (see
// summarize). Under RunAll the build goes through the run's chip memo, so
// each distinct variant is generated and built once however many
// experiments ask for it; outside RunAll it builds directly.
func (c Config) chip(ctx context.Context, v chipVariant) (*flow.ChipResult, error) {
	if c.memo == nil {
		return c.buildChip(ctx, v)
	}
	return c.memo.get(ctx, v, func() (*flow.ChipResult, error) { return c.buildChip(ctx, v) })
}

// buildChip generates the design and builds variant v from it.
func (c Config) buildChip(ctx context.Context, v chipVariant) (*flow.ChipResult, error) {
	d, err := t2.Generate(c.t2cfg())
	if err != nil {
		return nil, err
	}
	fcfg := c.flowCfg()
	fcfg.UseHVT = v.UseHVT
	fcfg.Placer = v.Placer
	r, err := flow.New(d, fcfg).BuildChipContext(ctx, v.Style)
	if err != nil {
		return nil, err
	}
	return summarize(r), nil
}

// summarize drops r's netlists in place and returns it: each block result
// keeps its stats, power, CTS summary and timing totals, but loses its
// block netlist and the per-cell timing slices. No experiment reads what
// goes (headtohead's HPWL is ChipStats.HPWLUm, summed during the build),
// so a memoized chip costs kilobytes instead of a whole design.
func summarize(r *flow.ChipResult) *flow.ChipResult {
	for _, br := range r.Blocks {
		br.Block = nil
		if br.Timing != nil {
			br.Timing.CellSlack, br.Timing.NetSlack, br.Timing.ArrOut = nil, nil, nil
		}
	}
	return r
}

// chipMemo holds the chips one RunAll has built, with single-flight: the
// first caller of a variant builds it while later callers wait for that
// build instead of repeating it. Results are shared read-only; a summary
// holds no netlist, so keeping every chip of a run costs little memory.
type chipMemo struct {
	mu    sync.Mutex
	chips map[chipVariant]*chipCall
}

// chipCall is one variant's build; done closes once res and err are set.
type chipCall struct {
	done chan struct{}
	res  *flow.ChipResult
	err  error
}

func newChipMemo() *chipMemo {
	return &chipMemo{chips: map[chipVariant]*chipCall{}}
}

// get returns variant v, calling build if no caller has built it yet or
// is building it now. A failed or canceled build is forgotten, so a
// waiter (or a later caller) builds it again. A waiter whose own context
// dies stops waiting and returns errs.ErrCanceled.
//
// Waiting cannot deadlock: a caller waits here only between chip builds,
// holding no other chip and no artifact-cache claim, and a build never
// asks the memo for another chip.
func (m *chipMemo) get(ctx context.Context, v chipVariant, build func() (*flow.ChipResult, error)) (*flow.ChipResult, error) {
	for {
		call, owner := m.claim(v)
		if owner {
			call.res, call.err = build()
			if call.err != nil {
				m.forget(v)
			}
			close(call.done)
			return call.res, call.err
		}
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, pool.Canceled(ctx)
		}
		if call.err == nil {
			return call.res, nil
		}
	}
}

// claim returns the call for v, registering a new one owned by the
// caller when there is none.
func (m *chipMemo) claim(v chipVariant) (*chipCall, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if call, ok := m.chips[v]; ok {
		return call, false
	}
	call := &chipCall{done: make(chan struct{})}
	m.chips[v] = call
	return call, true
}

// forget drops a failed build of v.
func (m *chipMemo) forget(v chipVariant) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.chips, v)
}
