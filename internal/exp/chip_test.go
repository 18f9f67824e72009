package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"fold3d/internal/errs"
	"fold3d/internal/flow"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/pool"
	"fold3d/internal/t2"
)

// chipExperiments are the generators that build full chips, the ones the
// chip memo serves. Between them they ask for 31 chips, 13 of them
// distinct.
var chipExperiments = []string{"table2", "table3", "table5", "fig8", "dualvth", "thermal", "headtohead"}

// TestChipMemo runs the chip experiments twice against one cache: through
// RunAll, where the memo builds each distinct chip once, and then one
// generator at a time outside RunAll, where every chip is built again
// (restored from the now warm cache). The reports must be byte-identical.
// The cold RunAll must finish exactly 13 chip builds, and single-flight in
// the executor must keep its cache misses equal to the entries it stored.
func TestChipMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("13 cold and 31 warm full-chip builds")
	}
	ctx := context.Background()
	cache := pipeline.NewCache(pipeline.CacheOptions{})
	built := 0
	countBuilds := func(p flow.Progress) {
		if p.Stage == flow.StageDone {
			built++
		}
	}
	cfg := Config{Scale: 1000, Seed: 42, Workers: 4, Cache: cache, Progress: countBuilds}
	memoized, err := RunAll(ctx, cfg, chipExperiments, nil)
	if err != nil {
		t.Fatal(err)
	}
	if built != 13 {
		t.Errorf("RunAll built %d chips, want the 13 distinct ones", built)
	}
	if st := cache.Stats(); st.Misses != st.Entries {
		t.Errorf("cold RunAll: %s; want misses equal to entries", st)
	}

	built = 0
	for i, name := range chipExperiments {
		g, _ := ByName(name)
		r, err := g.Run(ctx, Config{Scale: 1000, Seed: 42, Workers: 1, Cache: cache, Progress: countBuilds})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Report != memoized[i].Report {
			t.Errorf("%s: report differs with the memo off\nmemo on:\n%s\nmemo off:\n%s", name, memoized[i].Report, r.Report)
		}
	}
	if built != 31 {
		t.Errorf("generators outside RunAll built %d chips, want 31", built)
	}
}

// TestChipSummary checks what a summarized chip keeps: no block netlist
// and no per-cell timing, but the timing totals, and a ChipStats.HPWLUm
// that equals, bit for bit, the sorted per-block HPWL sum headtohead used
// to take over the netlists.
func TestChipSummary(t *testing.T) {
	cfg := Config{Scale: 1000, Seed: 42}
	d, err := t2.Generate(cfg.t2cfg())
	if err != nil {
		t.Fatal(err)
	}
	r, err := flow.New(d, cfg.flowCfg()).BuildChipContext(context.Background(), t2.StyleFoldF2F)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(r.Blocks))
	for name := range r.Blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	var um float64
	wns := make([]float64, len(names))
	for i, name := range names {
		um += place.HPWL(r.Blocks[name].Block)
		wns[i] = r.Blocks[name].Timing.WNS
	}
	if math.Float64bits(r.Stats.HPWLUm) != math.Float64bits(um) {
		t.Errorf("ChipStats.HPWLUm = %v, want the netlist sum %v", r.Stats.HPWLUm, um)
	}

	s := summarize(r)
	for i, name := range names {
		br := s.Blocks[name]
		if br.Block != nil {
			t.Errorf("%s: summary keeps its netlist", name)
		}
		tr := br.Timing
		if tr.CellSlack != nil || tr.NetSlack != nil || tr.ArrOut != nil {
			t.Errorf("%s: summary keeps per-cell timing", name)
		}
		if tr.WNS != wns[i] || tr.Endpoints == 0 {
			t.Errorf("%s: summary timing WNS %v, endpoints %d; want WNS %v and endpoints kept", name, tr.WNS, tr.Endpoints, wns[i])
		}
	}
}

// TestChipMemoSingleFlight drives the memo alone, with stand-in builds:
// concurrent callers of one variant share its build, a failed build is
// forgotten so that a waiter builds it again, and a waiter whose own
// context is done gives up without building.
func TestChipMemoSingleFlight(t *testing.T) {
	const n = 8
	v := chipVariant{Style: t2.Style2D, Placer: place.DefaultBackend}
	want := &flow.ChipResult{Style: t2.Style2D}
	boom := errors.New("boom")
	m := newChipMemo()
	var mu sync.Mutex
	builds := 0
	var started sync.WaitGroup
	started.Add(n)
	got := make([]*flow.ChipResult, n)
	gotErr := make([]error, n)
	err := pool.Run(context.Background(), n, n, func(ctx context.Context, i int) error {
		started.Done()
		got[i], gotErr[i] = m.get(ctx, v, func() (*flow.ChipResult, error) {
			mu.Lock()
			builds++
			first := builds == 1
			mu.Unlock()
			// Build only once every caller has started, so the others
			// meet the build in flight.
			started.Wait()
			if first {
				return nil, boom
			}
			return want, nil
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Errorf("%d builds, want 2: the failed one and one retry", builds)
	}
	failed := 0
	for i := range got {
		switch {
		case errors.Is(gotErr[i], boom):
			failed++
		case gotErr[i] != nil || got[i] != want:
			t.Errorf("caller %d got %v, %v; want the retried build", i, got[i], gotErr[i])
		}
	}
	if failed != 1 {
		t.Errorf("%d callers saw the failed build, want only its owner", failed)
	}

	m = newChipMemo()
	building := make(chan struct{})
	finish := make(chan struct{})
	err = pool.Run(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 0 {
			_, err := m.get(ctx, v, func() (*flow.ChipResult, error) {
				close(building)
				<-finish
				return want, nil
			})
			return err
		}
		<-building
		defer close(finish)
		gone, cancel := context.WithCancel(ctx)
		cancel()
		_, err := m.get(gone, v, func() (*flow.ChipResult, error) {
			return nil, errors.New("a canceled waiter built the chip")
		})
		if !errors.Is(err, errs.ErrCanceled) {
			return fmt.Errorf("canceled waiter: err = %v, want ErrCanceled", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
