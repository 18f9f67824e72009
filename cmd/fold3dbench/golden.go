package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fold3d/internal/jobs"
)

// goldenSeeds are the workload seeds whose CLI outputs are pinned: the
// default and a held-out one.
var goldenSeeds = []uint64{42, 7}

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenData is the committed record of correct outputs. A change that
// alters any of them fails the benchmark's correctness check; regenerate
// with -write-golden only for a change that means to alter results.
type goldenData struct {
	// CLI maps the output-defining fold3d arguments of a job (cliArgs) to
	// the sha256 of its stdout.
	CLI map[string]string `json:"cli"`
	// Serve maps every serve-fleet request ("exp/seed") to the result
	// fingerprint fold3dd returns for it.
	Serve map[string]string `json:"serve"`
}

// loadGolden decodes the embedded golden record.
func loadGolden() (*goldenData, error) {
	var g goldenData
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return &g, nil
}

// digest is the hex sha256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outputCheck compares every output of one run against one digest: the
// golden digest when the run's arguments have one, the run's first output
// otherwise (fold3d's stdout must not depend on worker count, cache
// temperature or the rep).
type outputCheck struct {
	want string
}

// check records or compares one output.
func (c *outputCheck) check(stdout []byte) error {
	got := digest(stdout)
	switch {
	case c.want == "":
		c.want = got
	case got != c.want:
		return fmt.Errorf("stdout sha256 %.12s, want %.12s", got, c.want)
	}
	return nil
}

// writeGolden regenerates testdata/golden.json under root: the stdout
// digests of the CLI workloads at the golden seeds (set-up and one rep,
// which must agree), and the fingerprint of every request the serve mix
// can draw, computed by an in-process job manager.
func writeGolden(ctx context.Context, e *env) error {
	g := goldenData{CLI: map[string]string{}, Serve: map[string]string{}}
	for _, w := range workloads {
		if w.serve {
			continue
		}
		for _, seed := range goldenSeeds {
			key, full := cliArgs(w, seed, e.cacheDir(w))
			if err := os.RemoveAll(e.cacheDir(w)); err != nil {
				return err
			}
			oc := outputCheck{}
			for rep := 0; rep < 2; rep++ {
				inv, err := invoke(ctx, e.fold3d(), full...)
				if err != nil {
					return err
				}
				if err := oc.check(inv.stdout); err != nil {
					return fmt.Errorf("%s seed %d: set-up and rep disagree: %w", w.name, seed, err)
				}
			}
			g.CLI[strings.Join(key, " ")] = oc.want
			fmt.Fprintf(os.Stderr, "golden: %s seed %d %.12s\n", w.name, seed, oc.want)
		}
	}

	var reqs []request
	for _, exp := range serveExps {
		for s := uint64(1); s <= serveSeeds; s++ {
			reqs = append(reqs, request{exp: exp, seed: s})
		}
	}
	mgr := jobs.NewManager(jobs.Options{Workers: 2, QueueDepth: len(reqs)})
	defer func() { _ = mgr.Close(context.Background()) }()
	submitted := make([]*jobs.Job, len(reqs))
	for i, q := range reqs {
		j, err := mgr.Submit(jobs.Request{Experiments: []string{q.exp}, Seed: q.seed, Workers: 1})
		if err != nil {
			return err
		}
		submitted[i] = j
	}
	for i, j := range submitted {
		select {
		case <-j.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
		info := j.Info()
		if info.Result == nil {
			return fmt.Errorf("golden: %s failed: %s", reqs[i].key(), info.Error)
		}
		g.Serve[reqs[i].key()] = info.Result.Fingerprint
	}
	fmt.Fprintf(os.Stderr, "golden: %d serve fingerprints\n", len(g.Serve))

	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.root, "cmd", "fold3dbench", "testdata", "golden.json"), append(data, '\n'), 0o644)
}
