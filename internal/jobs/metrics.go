package jobs

import (
	"sort"
	"time"

	"fold3d/internal/pipeline"
)

// stageBucketBounds are the histogram upper bounds, in seconds, for the
// per-stage latency metrics. Chosen to straddle the observed range of the
// flow's stages: via placement on a small block sits under a millisecond,
// a full chip implement phase at scale 1 runs into the tens of seconds.
var stageBucketBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// histogram is a fixed-bucket latency histogram. counts[i] holds the
// observations <= stageBucketBounds[i] (non-cumulative; the snapshot
// cumulates); the extra last slot counts overflow beyond the final bound.
type histogram struct {
	counts []int   // len(stageBucketBounds)+1, last slot = overflow
	sum    float64 // seconds
	n      int
}

// observe records one duration into the histogram.
func (h *histogram) observe(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]int, len(stageBucketBounds)+1)
	}
	secs := d.Seconds()
	h.sum += secs
	h.n++
	for i, b := range stageBucketBounds {
		if secs <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(stageBucketBounds)]++
}

// observe attributes one stage latency sample under the manager lock.
func (m *Manager) observe(stage string, d time.Duration) {
	if stage == "" {
		return
	}
	m.mu.Lock()
	h := m.hist[stage]
	if h == nil {
		h = &histogram{}
		m.hist[stage] = h
	}
	h.observe(d)
	m.mu.Unlock()
}

// StageLatency is the snapshot of one stage's latency histogram, in the
// cumulative form Prometheus histograms use: CumCounts[i] counts the
// observations <= Bounds[i]; Count covers everything including overflow.
type StageLatency struct {
	// Stage is the flow stage name the samples belong to.
	Stage string
	// Bounds are the bucket upper bounds in seconds.
	Bounds []float64
	// CumCounts[i] is the number of observations <= Bounds[i].
	CumCounts []int
	// Count is the total number of observations.
	Count int
	// SumSeconds is the sum of all observed durations.
	SumSeconds float64
}

// Metrics is a point-in-time snapshot of the manager's service counters,
// shaped for the /metrics endpoint.
type Metrics struct {
	// Queued and Running are gauges of jobs currently in those states.
	Queued, Running int
	// Done, Failed and Canceled count jobs that reached each terminal
	// state since the manager started.
	Done, Failed, Canceled int
	// Reused counts the done jobs answered with an earlier identical job's
	// result instead of running (a subset of Done).
	Reused int
	// Submitted counts every accepted job (it equals Queued + Running +
	// the three terminal counters).
	Submitted int
	// Cache is the shared artifact cache snapshot.
	Cache pipeline.Stats
	// Stages holds the per-stage latency histograms sorted by stage name.
	Stages []StageLatency
}

// Metrics snapshots the service counters under the manager lock (the cache
// snapshots under its own).
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	out := Metrics{
		Queued:    m.nQueued,
		Running:   m.nRunning,
		Done:      m.nDone,
		Failed:    m.nFailed,
		Canceled:  m.nCanceled,
		Reused:    m.nReused,
		Submitted: m.seq,
	}
	names := make([]string, 0, len(m.hist))
	for name := range m.hist {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := m.hist[name]
		sl := StageLatency{
			Stage:      name,
			Bounds:     stageBucketBounds,
			CumCounts:  make([]int, len(stageBucketBounds)),
			Count:      h.n,
			SumSeconds: h.sum,
		}
		cum := 0
		for i := range stageBucketBounds {
			cum += h.counts[i]
			sl.CumCounts[i] = cum
		}
		out.Stages = append(out.Stages, sl)
	}
	m.mu.Unlock()
	out.Cache = m.cache.Stats()
	return out
}
