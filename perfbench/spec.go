package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of the benchmark's declaration file the program
// uses. The program emits exactly the metrics it declares: names come
// from the code, units from the file.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate enforces the declaration rules: well-formed unique names and
// units, a known direction, end-to-end bounds in (0, 0.25], no bounds on
// per-layer metrics, and a setup_s metric.
func (s *benchSpec) validate() error {
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			return fmt.Errorf("invalid or duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2..8", len(s.Workloads))
	}
	seen = map[string]bool{}
	check := func(m metricDef, e2e bool) error {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			return fmt.Errorf("invalid or duplicate metric name %q", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, got %q", m.Name, m.Better)
		}
		if e2e != (m.Bound != nil) {
			return fmt.Errorf("metric %s: bound belongs on end-to-end metrics only", m.Name)
		}
		if e2e && !(*m.Bound > 0 && *m.Bound <= 0.25) {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		return nil
	}
	for _, m := range s.EndToEnd {
		if err := check(m, true); err != nil {
			return err
		}
	}
	for _, m := range s.PerLayer {
		if err := check(m, false); err != nil {
			return err
		}
	}
	if !seen["setup_s"] {
		return fmt.Errorf("no setup_s metric")
	}
	return nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported metric as printed on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics pairs measured values with the declared metrics. The two
// name sets must match exactly: a value the spec does not declare, or a
// declared metric the run did not produce, is an error.
func buildMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics not declared in the spec: %v", extra)
	}
	return out, nil
}
