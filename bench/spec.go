package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the single source of the workload names, the
// metric names, their units and their regression bounds. The runners
// produce values by name; a value the spec does not declare, or a
// declared metric a run did not produce, is an error.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from root.
func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// workloadNames returns the declared workload names in file order.
func (sp *spec) workloadNames() []string {
	out := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		out[i] = w.Name
	}
	return out
}

// metrics returns the metrics a run prints: the end-to-end set untraced,
// the per-layer set traced.
func (sp *spec) metrics(traced bool) []specMetric {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// metric looks a metric up by name in either set.
func (sp *spec) metric(name string) (specMetric, bool) {
	for _, set := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

// checkValues verifies that vals holds a finite value for exactly the
// metrics the spec declares for the mode.
func (sp *spec) checkValues(vals map[string]float64, traced bool) error {
	want := map[string]bool{}
	for _, m := range sp.metrics(traced) {
		want[m.Name] = true
		v, ok := vals[m.Name]
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value (too few samples)", m.Name)
		}
	}
	var extra []string
	for name := range vals {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("measured metrics not declared in BENCHMARK.json: %v", extra)
	}
	return nil
}
