package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the declared workloads and metrics. The
// benchmark loads it at start and refuses to print a metric set that
// differs from the declaration.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workloadID `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workloadID struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads and validates the declaration at path.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(data)
}

func parseSpec(data []byte) (*spec, error) {
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) validate() error {
	switch {
	case len(s.Command) == 0 || len(s.Command) > 32:
		return fmt.Errorf("command has %d entries, want 1..32", len(s.Command))
	case len(s.Paths) == 0 || len(s.Paths) > 16:
		return fmt.Errorf("paths has %d entries, want 1..16", len(s.Paths))
	case s.RunSeconds < 1 || s.RunSeconds > 60:
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	case len(s.Workloads) < 2 || len(s.Workloads) > 8:
		return fmt.Errorf("%d workloads, want 2..8", len(s.Workloads))
	case len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16:
		return fmt.Errorf("%d end_to_end metrics, want 1..16", len(s.EndToEnd))
	case len(s.PerLayer) < 1 || len(s.PerLayer) > 128:
		return fmt.Errorf("%d per_layer metrics, want 1..128", len(s.PerLayer))
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if err := checkName(name); err != nil {
			return err
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := s.checkMetric(m, use); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end lacks setup_s with unit s and better lower")
	}
	for _, m := range s.PerLayer {
		if err := s.checkMetric(m, use); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	return nil
}

func (s *spec) checkMetric(m metricSpec, use func(string) error) error {
	if err := use(m.Name); err != nil {
		return err
	}
	if err := checkUnit(m.Unit); err != nil {
		return fmt.Errorf("metric %s: %w", m.Name, err)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better must be lower or higher, got %q", m.Name, m.Better)
	}
	return nil
}

// workload reports whether name is a declared workload.
func (s *spec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// checkEmitted verifies that got holds exactly the declared metrics, each
// with its declared unit.
func checkEmitted(want []metricSpec, got map[string]metricOut) error {
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s declared but not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
		}
		for name := range got {
			if !names[name] {
				return fmt.Errorf("metric %s measured but not declared", name)
			}
		}
	}
	return nil
}
