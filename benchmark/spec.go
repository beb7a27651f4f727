package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the program reads. The file is the one
// place metric names, units, directions and bounds are written down: a run
// emits exactly the metrics it lists, with its units, and the compare mode
// applies its bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metrics lists the metrics a run reports: the per-layer set for a traced
// run, the end-to-end set otherwise.
func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// hasWorkload reports whether BENCHMARK.json names the workload.
func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric is one reported value with its unit, the wire shape of the result
// line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildResult attaches the spec's units to the measured values and checks
// that the workload measured exactly the metrics the spec lists for the mode.
func buildResult(s *spec, o *outcome, traced bool) (*result, error) {
	r := &result{Correct: o.checkErr == nil, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metric, len(o.values))}
	for _, m := range s.metrics(traced) {
		v, ok := o.values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(r.Metrics) != len(o.values) {
		var extra []string
		for name := range o.values {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from the spec: %v", extra)
	}
	if r.Attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	return r, nil
}
