package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark reports, with its unit and the
// direction in which it improves. BENCHMARK.json at the repository root
// lists the same metrics (TestSpecMatchesTables keeps the two in step) and
// adds the regression bound of every end-to-end metric.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are measured with tracing off, from outside the fold3d and
// fold3dd processes, on every workload. A job is one fold3d invocation on
// the CLI workloads and one fold3dd request (POST to its terminal event)
// on serve-fleet.
var e2eMetrics = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerMetrics come from the traced run. Every workload reports all of
// them: the flow pass runs the workload's own experiments, the engine
// probes run at the workload's scale, and the serve pass is the full
// closed loop on serve-fleet and a fixed probe elsewhere. README.md says
// which end-to-end metric each should move, and on which workload.
var layerMetrics = []metricDef{
	{"flow.fold_s", "s", "lower"},
	{"flow.floorplan_s", "s", "lower"},
	{"flow.implement_s", "s", "lower"},
	{"flow.chip_nets_s", "s", "lower"},
	{"flow.aggregate_s", "s", "lower"},
	{"exp.outside_chip_s", "s", "lower"},
	{"flow.fold_alloc_mb", "MB", "lower"},
	{"flow.floorplan_alloc_mb", "MB", "lower"},
	{"flow.implement_alloc_mb", "MB", "lower"},
	{"flow.chip_nets_alloc_mb", "MB", "lower"},
	{"flow.aggregate_alloc_mb", "MB", "lower"},
	{"exp.outside_chip_alloc_mb", "MB", "lower"},
	{"flow.chips_built", "count", "lower"},
	{"flow.blocks_implemented", "count", "lower"},
	{"flow.implement_block_max_ms", "ms", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.disk_hits", "count", "higher"},
	{"cache.peer_hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.stores", "count", "lower"},
	{"cache.evicted", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"t2.generate_ms", "ms", "lower"},
	{"core.fold_spc_ms", "ms", "lower"},
	{"core.fold_l2t_ms", "ms", "lower"},
	{"place.force_place_ms", "ms", "lower"},
	{"place.analytical_place_ms", "ms", "lower"},
	{"place.legalize_ms", "ms", "lower"},
	{"extract.full_ms", "ms", "lower"},
	{"extract.update_1pct_ms", "ms", "lower"},
	{"sta.full_ms", "ms", "lower"},
	{"sta.incr_1pct_ms", "ms", "lower"},
	{"power.analyze_ms", "ms", "lower"},
	{"route.f2f_vias_ms", "ms", "lower"},
	{"flow.implement_block_ms", "ms", "lower"},
	{"thermal.block_solve_ms", "ms", "lower"},
	{"thermal.resolve_ms", "ms", "lower"},
	{"thermal.relaxations", "count", "lower"},
	{"serve.submit_p50_ms", "ms", "lower"},
	{"serve.submit_p90_ms", "ms", "lower"},
	{"serve.queue_wait_p50_ms", "ms", "lower"},
	{"serve.queue_wait_p90_ms", "ms", "lower"},
	{"serve.run_p50_ms", "ms", "lower"},
	{"serve.run_p90_ms", "ms", "lower"},
	{"serve.latency_p90_ms", "ms", "lower"},
	{"serve.forwarded_ratio", "ratio", "lower"},
	{"serve.repeat_ratio", "ratio", "higher"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_peer_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
}

// spec is BENCHMARK.json: the contract a later change is measured against.
type spec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specLoad  `json:"workloads"`
	EndToEnd   []specBound `json:"end_to_end"`
	PerLayer   []specLayer `json:"per_layer"`
}

// specLoad is one workload entry of BENCHMARK.json.
type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// specBound is one end-to-end metric entry: Bound is the share of the
// parent's median by which the metric may worsen before a change counts as
// a regression.
type specBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specLayer is one per-layer metric entry; layer metrics carry no bound.
type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// readSpec loads BENCHMARK.json strictly: an unknown key is an error.
func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
