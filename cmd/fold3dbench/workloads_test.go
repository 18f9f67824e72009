package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestRequestMixDeterministic checks the serve request stream: a pure
// function of its seed, whose seed changes the order but not the requests,
// with each experiment in equal measure in every round, Zipf-ranked job
// seeds, and every request inside the golden fingerprint table.
func TestRequestMixDeterministic(t *testing.T) {
	const n = 500
	a := requestMix(42, n)
	if b := requestMix(42, n); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different requests")
	}
	b := requestMix(7, n)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 42 and 7 offer the requests in the same order")
	}
	if !reflect.DeepEqual(tally(a), tally(b)) {
		t.Error("seeds 42 and 7 offer different requests")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	k := len(serveExps)
	for i := 0; i+k <= n; i += k {
		round := map[string]bool{}
		for _, q := range a[i : i+k] {
			round[q.exp] = true
		}
		if len(round) != k {
			t.Fatalf("round at %d holds %d distinct experiments, want %d", i, len(round), k)
		}
	}
	perSeed := map[uint64]int{}
	for _, q := range a {
		if q.seed < 1 || q.seed > serveSeeds {
			t.Fatalf("request seed %d outside 1..%d", q.seed, serveSeeds)
		}
		if _, ok := g.Serve[q.key()]; !ok {
			t.Errorf("request %s has no golden fingerprint", q.key())
		}
		perSeed[q.seed]++
	}
	for s := uint64(2); s <= serveSeeds; s++ {
		if perSeed[s] > perSeed[s-1] {
			t.Errorf("job seed %d drawn %d times, more than seed %d (%d)", s, perSeed[s], s-1, perSeed[s-1])
		}
	}
	if distinct := len(tally(a)); distinct < k || distinct > n/2 {
		t.Errorf("%d distinct requests in %d: want repeats that hit the caches and a cold tail", distinct, n)
	}
}

// tally counts each distinct request.
func tally(reqs []request) map[request]int {
	m := map[request]int{}
	for _, q := range reqs {
		m[q]++
	}
	return m
}

// TestSelfChecks feeds each workload self-check an output that passes and
// one where the headline layer did no work.
func TestSelfChecks(t *testing.T) {
	table5 := "metric 2D 3D 3D\ntotal power W 97.323 96.766(-0.6%) 80.536(-17.2%)\n"
	thermal := `== Thermal study ==
style        bond  power W   Tmax C   Tavg C   Tmax bot/top    vias  Tmax+vias
2D          -       84.79   111.85    67.15    111.9 / 0.0        0       -
core/cache  F2B     83.56   150.24    94.56    150.2 / 130.2    200  136.19
fold-F2F    F2F     60.96   142.72    83.01    142.7 / 114.2      0       -
budget: Tmax <= 85.0 C after thermal vias
the F2B adhesive bond, and thermal vias claw back part of the F2B penalty
`
	cases := []struct {
		name           string
		check          func(stdout, stderr string) error
		stdout, stderr string
		ok             bool
	}{
		{"chips", checkChips, table5, "", true},
		{"two chips", checkChips, "total power W 97.3 96.7(-0.6%)\n", "", false},
		{"zero chip", checkChips, "total power W 97.3 0.000(-100%) 80.5(-17%)\n", "", false},
		{"warm", checkWarm, "", "fold3d: cache hits=834 disk_hits=639 peer_hits=0 misses=0 stores=0 corrupt=0", true},
		{"cold", checkWarm, "", "fold3d: cache hits=819 disk_hits=0 peer_hits=0 misses=654 stores=654 corrupt=0", false},
		{"vias", checkThermalVias, thermal, "", true},
		{"no vias", checkThermalVias, strings.Replace(thermal, "200", "0", 1), "", false},
		{"no table", checkThermalVias, "the F2B adhesive bond\n", "", false},
	}
	for _, c := range cases {
		if err := c.check(c.stdout, c.stderr); (err == nil) != c.ok {
			t.Errorf("%s: check returned %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
