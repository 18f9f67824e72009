package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// report is the record of one benchmark run: printed as a table, appended
// as one JSON line to the result file, and condensed into the last stdout
// line.
type report struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     int     `json:"trace"`
	CPUs      int     `json:"cpus"`
	Go        string  `json:"go"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Errors holds the first maxErrors failures.
	Errors  []string           `json:"errors,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	// Timings holds the distribution behind every metric that is the
	// median of many samples.
	Timings map[string]summary `json:"timings,omitempty"`
}

// maxErrors bounds the failure messages a report keeps.
const maxErrors = 10

func newReport(workload string, seed uint64, seconds float64, trace int) *report {
	return &report{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		CPUs: runtime.NumCPU(), Go: runtime.Version(),
		Metrics: map[string]float64{}, Timings: map[string]summary{},
	}
}

// attempt counts one operation and its failure, if any.
func (r *report) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.fail(err)
	}
}

// fail records a failure message without counting an operation: a broken
// self-check of the whole run rather than of one job.
func (r *report) fail(err error) {
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// timing sets metric name to the median of samples, each multiplied by
// unit (1000 turns seconds into milliseconds), and keeps the distribution.
// Without samples the metric stays unset.
func (r *report) timing(name string, samples []float64, unit float64) {
	if len(samples) == 0 {
		return
	}
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s * unit
	}
	s := summarize(xs)
	r.Metrics[name] = s.Median
	r.Timings[name] = s
}

// correct reports whether every operation and self-check succeeded and
// every metric of defs was measured.
func (r *report) correct(defs []metricDef) bool {
	if r.Failed > 0 || len(r.Errors) > 0 {
		return false
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			return false
		}
	}
	return true
}

// write prints the human-readable table of defs to w, then the result line
// as the last line: {"correct", "attempted", "failed", "metrics"}.
func (r *report) write(w io.Writer, defs []metricDef) error {
	fmt.Fprintf(w, "fold3dbench %s seed=%d seconds=%g trace=%d cpus=%d %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.CPUs, r.Go)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-28s not measured\n", d.name)
			continue
		}
		metrics[d.name] = value{v, d.unit}
		line := fmt.Sprintf("  %-28s %14.4f %-6s", d.name, v, d.unit)
		if s, ok := r.Timings[d.name]; ok {
			line += fmt.Sprintf(" n=%d q1=%.4f q3=%.4f", s.N, s.Q1, s.Q3)
			if s.P90 != nil {
				line += fmt.Sprintf(" p90=%.4f", *s.P90)
			}
			if s.P99 != nil {
				line += fmt.Sprintf(" p99=%.4f", *s.P99)
			}
		}
		fmt.Fprintln(w, line)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d\n", r.Attempted, r.Failed)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(defs), r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendRecord appends r as one JSON line to the result file at path.
func appendRecord(path string, r *report) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// readRecords loads every run recorded in a result file.
func readRecords(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*report
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r report
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, nil
}
