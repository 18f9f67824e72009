package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"fold3d/internal/rng"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json and
// README.md record why each was chosen.
type workload struct {
	name string
	// exps are the experiments one CLI job runs; nil means all of them.
	// serve-fleet draws its requests from serveExps.
	exps  []string
	scale float64
	// thermal turns on in-loop thermal planning with a tmaxC budget.
	thermal bool
	// warm makes every measured rep read a -cachedir that set-up filled.
	warm  bool
	serve bool
	// setups is how many times a measured run sets the workload up;
	// setup_s is their median. The warm workload's set-up is a cold run of
	// every experiment, so it sets up twice to keep a run within budget.
	setups int
	// check is the self-check of one measured rep: it fails the rep when
	// the layer the workload exists to exercise did no work.
	check func(stdout, stderr string) error
}

// tmaxC is the peak-temperature budget of thermal-s1000.
const tmaxC = 85

// serveExps is the serve-fleet request mix, drawn uniformly. table3 is the
// one chip build in it, so the fleet's jobs reach every chip phase.
var serveExps = []string{"table3", "table4", "fig2", "fig5", "fig6", "fig7"}

// workloads are the benchmark's four workloads, in the order they are
// documented.
var workloads = []workload{
	{name: "chip-s100", exps: []string{"table5"}, scale: 100, setups: 3, check: checkChips},
	{name: "all-s300-warm", scale: 300, warm: true, setups: 2, check: checkWarm},
	{name: "thermal-s1000", exps: []string{"thermal"}, scale: 1000, thermal: true, setups: 3, check: checkThermalVias},
	{name: "serve-fleet", scale: 1000, serve: true, setups: 3},
}

// workloadByName looks a workload up.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cliArgs returns the fold3d arguments of one job of w. The first return
// names the output: fold3d promises byte-identical stdout for it at any
// -workers value and cache temperature, so it keys the golden digests;
// the second adds the arguments that may change only speed.
func cliArgs(w workload, seed uint64, cachedir string) (key, full []string) {
	exps := "all"
	if w.exps != nil {
		exps = strings.Join(w.exps, ",")
	}
	key = []string{"-exp", exps, "-scale", strconv.FormatFloat(w.scale, 'g', -1, 64),
		"-seed", strconv.FormatUint(seed, 10)}
	if w.thermal {
		key = append(key, "-thermal", "-tmax", strconv.Itoa(tmaxC))
	}
	full = append(append([]string(nil), key...), "-workers", "0", "-cachestats")
	if cachedir != "" {
		full = append(full, "-cachedir", cachedir)
	}
	return key, full
}

// checkChips requires table5's three chips: a positive total power in each
// of its three style columns.
func checkChips(stdout, _ string) error {
	for _, line := range strings.Split(stdout, "\n") {
		rest, ok := strings.CutPrefix(line, "total power W")
		if !ok {
			continue
		}
		cols := strings.Fields(rest)
		if len(cols) != 3 {
			return fmt.Errorf("self-check: table5 reports %d chips, want 3", len(cols))
		}
		for _, c := range cols {
			num, _, _ := strings.Cut(c, "(")
			if v, err := strconv.ParseFloat(num, 64); err != nil || !(v > 0) {
				return fmt.Errorf("self-check: table5 chip power %q is not positive", c)
			}
		}
		return nil
	}
	return fmt.Errorf("self-check: no table5 total-power row")
}

// cacheStatsRe matches the counters of fold3d's -cachestats line.
var cacheStatsRe = regexp.MustCompile(`misses=(\d+) stores=(\d+)`)

// checkWarm requires a fully warm rep: every artifact restored, none
// computed or written.
func checkWarm(_, stderr string) error {
	m := cacheStatsRe.FindStringSubmatch(stderr)
	if m == nil {
		return fmt.Errorf("self-check: no -cachestats line")
	}
	if m[1] != "0" || m[2] != "0" {
		return fmt.Errorf("self-check: warm rep has misses=%s stores=%s, want 0 and 0", m[1], m[2])
	}
	return nil
}

// checkThermalVias requires the thermal study to insert thermal vias on
// every F2B-bonded style.
func checkThermalVias(stdout, _ string) error {
	rows := 0
	inTable := false
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 1 && f[0] == "style" && f[1] == "bond":
			inTable = true
			continue
		case len(f) < 4 || (f[1] != "-" && f[1] != "F2B" && f[1] != "F2F"):
			inTable = false // a row names its bond second
		}
		if !inTable || f[1] != "F2B" {
			continue
		}
		rows++
		if v, err := strconv.Atoi(f[len(f)-2]); err != nil || v <= 0 {
			return fmt.Errorf("self-check: F2B style %s shows vias %q, want > 0", f[0], f[len(f)-2])
		}
	}
	if rows == 0 {
		return fmt.Errorf("self-check: no F2B rows in the thermal study")
	}
	return nil
}

// request is one serve-fleet job: an experiment at one seed, at the
// default scale.
type request struct {
	exp  string
	seed uint64
}

// Job seeds follow a Zipf law over 1..serveSeeds, so some requests repeat
// and hit the fleet's caches while the tail stays cold.
const (
	serveSeeds = 64
	serveZipfS = 1.2
)

// requestMix returns the n requests of one serve run in an order drawn
// from seed. Which requests they are does not depend on seed: every
// experiment gets an equal share, and each share's job seeds are
// apportioned to the Zipf law exactly. The seed shuffles each experiment's
// job seeds and the order of the experiments within every round of
// len(serveExps) requests. Runs with different seeds therefore do the same
// work (the same cold builds, the same cache hits) in a different order,
// and every prefix holds each experiment in equal measure.
func requestMix(seed uint64, n int) []request {
	r := rng.New(seed)
	k := len(serveExps)
	shares := make([][]uint64, k)
	for e := range shares {
		count := n / k
		if e < n%k {
			count++
		}
		shares[e] = zipfSeeds(count)
		r.Shuffle(len(shares[e]), func(i, j int) { shares[e][i], shares[e][j] = shares[e][j], shares[e][i] })
	}
	out := make([]request, 0, n)
	for round := 0; len(out) < n; round++ {
		for _, e := range r.Perm(k) {
			if round < len(shares[e]) {
				out = append(out, request{exp: serveExps[e], seed: shares[e][round]})
			}
		}
	}
	return out
}

// zipfSeeds returns n job seeds in 1..serveSeeds, seed s occurring in
// proportion to s^-serveZipfS, apportioned by largest remainder.
func zipfSeeds(n int) []uint64 {
	w := make([]float64, serveSeeds)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -serveZipfS)
		sum += w[i]
	}
	counts := make([]int, serveSeeds)
	rem := make([]float64, serveSeeds)
	left := n
	for i := range w {
		exact := float64(n) * w[i] / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, serveSeeds)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	out := make([]uint64, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, uint64(i+1))
		}
	}
	return out
}

// warmupMix is the set-up of serve-fleet: every experiment of the mix at
// job seeds 1..serveWarmupSeeds. It is the same for every workload seed,
// so set-up does the same work in every run.
func warmupMix() []request {
	var out []request
	for s := uint64(1); s <= serveWarmupSeeds; s++ {
		for _, exp := range serveExps {
			out = append(out, request{exp: exp, seed: s})
		}
	}
	return out
}

// key names a request in the golden fingerprint table.
func (q request) key() string { return q.exp + "/" + strconv.FormatUint(q.seed, 10) }
