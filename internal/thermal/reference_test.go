package thermal

import (
	"fmt"
	"math"
	"testing"
)

// solveReference is the Gauss-Seidel oracle the multigrid Engine is checked
// against: plain relaxation of the tile network, one tile at a time. pw[die][i]
// is the tile power in watts (physical); tileAreaM2 is the physical tile
// area; vertK[i] is the die-to-die conductance per tile (W/K); dies is 1 or
// 2. Iteration stops when the largest per-tile update falls below tol or
// after maxIter sweeps, whichever comes first. It lives in a test file so
// no production package can call it.
func solveReference(pw [2][]float64, nx, ny, dies int, tileAreaM2 float64, vertK []float64, p Params, tol float64, maxIter int) *Result {
	n := nx * ny
	var t [2][]float64
	for d := 0; d < dies; d++ {
		t[d] = make([]float64, n)
		for i := range t[d] {
			t[d][i] = p.AmbientC
		}
	}
	// Conductances (W/K).
	gSink := p.KSinkWPerM2K * tileAreaM2
	gBoard := p.KBoardWPerM2K * tileAreaM2
	// Lateral: k * A_cross / L = k * (edge * thickness) / edge = k * thickness.
	gLat := p.KLateralWPerMK * (p.DieThicknessUm * 1e-6)

	sinkDie := dies - 1 // the top die's backside carries the sink
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for d := 0; d < dies; d++ {
			for iy := 0; iy < ny; iy++ {
				for ix := 0; ix < nx; ix++ {
					i := iy*nx + ix
					var gSum, flow float64
					// Lateral neighbors.
					for _, nb := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
						jx, jy := ix+nb[0], iy+nb[1]
						if jx < 0 || jx >= nx || jy < 0 || jy >= ny {
							continue
						}
						j := jy*nx + jx
						gSum += gLat
						flow += gLat * t[d][j]
					}
					// Vertical coupling to the other die.
					if dies == 2 {
						o := 1 - d
						gSum += vertK[i]
						flow += vertK[i] * t[o][i]
					}
					// Ambient paths.
					if d == sinkDie {
						gSum += gSink
						flow += gSink * p.AmbientC
					}
					if d == 0 {
						gSum += gBoard
						flow += gBoard * p.AmbientC
					}
					if gSum == 0 {
						continue
					}
					nt := (flow + pw[d][i]) / gSum
					if dl := math.Abs(nt - t[d][i]); dl > maxDelta {
						maxDelta = dl
					}
					t[d][i] = nt
				}
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return summarize(t, nx, ny, dies)
}

// BenchmarkThermalSolve times the multigrid engine (alg=mg) against the
// Gauss-Seidel oracle (alg=gs) on the same synthetic two-die F2B-like
// problem at the engine's 1e-4 tolerance, one sub-benchmark per grid size.
// It is also the solver's speed gate:
//
//	go test -run '^$' -bench ThermalSolve ./internal/thermal
//
// fails unless, at the largest grid, multigrid's ns/op is at least 10x
// lower than Gauss-Seidel's and the two agree on Tmax to 0.1 °C; -v logs
// both measures. The gate is skipped when a -bench filter leaves out
// either side of that grid.
func BenchmarkThermalSolve(b *testing.B) {
	p := DefaultParams()
	grids := []int{24, 48, 96, 192}
	largest := grids[len(grids)-1]
	var nsPerOp, tmax [2]float64 // mg, gs at the largest grid
	for _, n := range grids {
		c := synthCase{nx: n, ny: n, dies: 2, vertBase: 1, tsvSpikes: n, bottomBias: 0.6}
		pw, vertK := buildSynth(c, 1, p)
		for alg, name := range []string{"mg", "gs"} {
			b.Run(fmt.Sprintf("grid=%d/alg=%s", n, name), func(b *testing.B) {
				e := NewEngine()
				var r *Result
				for i := 0; i < b.N; i++ {
					if alg == 1 {
						r = solveReference(pw, n, n, 2, synthTileAreaM2, vertK, p, defaultSolveTol, 4_000_000)
					} else {
						loadSynth(b, e, c, pw, vertK, p)
						var err error
						if r, err = e.Solve(); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(r.TMaxC, "tmax_C")
				if n == largest {
					nsPerOp[alg] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					tmax[alg] = r.TMaxC
				}
			})
		}
	}
	if nsPerOp[0] == 0 || nsPerOp[1] == 0 {
		return
	}
	speedup, dT := nsPerOp[1]/nsPerOp[0], math.Abs(tmax[0]-tmax[1])
	b.Logf("grid=%d: multigrid %.1fx faster than Gauss-Seidel, Tmax differs by %.4f °C", largest, speedup, dT)
	if speedup < 10 {
		b.Errorf("grid=%d: multigrid only %.1fx faster than Gauss-Seidel (gate: 10x)", largest, speedup)
	}
	if dT > 0.1 {
		b.Errorf("grid=%d: multigrid and Gauss-Seidel disagree on Tmax by %.3f °C (gate: 0.1 °C)", largest, dT)
	}
}
