package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fogbuster/internal/bench"
	"fogbuster/pkg/atpg"
)

// These tests cover the benchmark's own code and never run a workload.

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{0.5, 0.7, 0.2, 0.9, 1.1}, [3]float64{0.35, 0.7, 1.0}},
	}
	for _, c := range cases {
		got := quartiles(sortedCopy(c.data))
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
		s := summarize(c.data)
		if s.P25 != got[0] || s.P75 != got[2] || s.N != len(c.data) {
			t.Errorf("summarize(%v) = %+v, quartiles %v", c.data, s, got)
		}
	}
	if s := summarize([]float64{4}); s.Median != 4 || s.P25 != 4 || s.P75 != 4 || s.N != 1 {
		t.Errorf("summarize of one sample = %+v", s)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true},
		{99, 0.9, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{9, 0.9, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, ok := percentile(xs, 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v (supported %v), want 90 true", v, ok)
	}
	if v, ok := percentile(xs[:50], 0.9); ok || v != 95 {
		t.Errorf("p90 of 51..100 = %v (supported %v), want 95 false", v, ok)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "fault", Parent: -1, Start: ms(0), End: ms(10)},
		{Name: "a", Parent: 0, Start: ms(1), End: ms(4)},
		{Name: "b", Parent: 0, Start: ms(3), End: ms(6)},  // overlaps a
		{Name: "c", Parent: 0, Start: ms(8), End: ms(12)}, // sticks out of the parent
		{Name: "d", Parent: 2, Start: ms(4), End: ms(5)},  // grandchild
		{Name: "e", Parent: -1, Start: ms(20), End: ms(21)},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(3), ms(3), ms(2), ms(4), ms(1), ms(1)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(spans); by["fault"] != ms(3) || by["b"] != ms(2) {
		t.Errorf("selfByName = %v", by)
	}
}

func TestNameGrammar(t *testing.T) {
	for _, ok := range []string{"run_s", "tdgen.fault_ms_p99", "table3-mix", "9lives", strings.Repeat("a", 64)} {
		if err := checkName(ok); err != nil {
			t.Errorf("checkName(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "tdgen:next", strings.Repeat("a", 65)} {
		if checkName(bad) == nil {
			t.Errorf("checkName(%q) accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "KB", "ratio"} {
		if err := checkUnit(ok); err != nil {
			t.Errorf("checkUnit(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "m s", "seconds_per_fault", "ms?"} {
		if checkUnit(bad) == nil {
			t.Errorf("checkUnit(%q) accepted", bad)
		}
	}
}

func TestLoadBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if w.Name != "service-mix" && len(engineJobs(w.Name, 2)) == 0 {
			t.Errorf("declared workload %s has no implementation", w.Name)
		}
	}
	if sp.Command[0] != "bash" || sp.Command[1] != sp.Paths[0]+"/run.sh" {
		t.Errorf("command %v does not run %s/run.sh", sp.Command, sp.Paths[0])
	}
	var maxBound float64
	for _, m := range sp.EndToEnd {
		maxBound = math.Max(maxBound, *m.Bound)
	}
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" && *m.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", *m.Bound, maxBound)
		}
	}

	bad := map[string]string{
		"unknown key":      `{"command":["x"],"paths":["p"],"run_seconds":1,"extra":1}`,
		"bound too large":  strings.Replace(specJSON, `"bound": 0.25`, `"bound": 0.3`, 1),
		"no setup_s":       strings.Replace(specJSON, `"setup_s"`, `"setup"`, 1),
		"bound on a layer": strings.Replace(specJSON, `"better": "higher"}`, `"better": "higher", "bound": 0.1}`, 1),
		"duplicate name":   strings.Replace(specJSON, `"name": "b"`, `"name": "a"`, 1),
		"one workload":     strings.Replace(specJSON, `, {"name": "b", "why": "y"}`, ``, 1),
	}
	if _, err := parseSpec([]byte(specJSON)); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	for name, doc := range bad {
		if _, err := parseSpec([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

const specJSON = `{
  "command": ["bash", "p/run.sh"], "paths": ["p"], "run_seconds": 10,
  "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
  "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
  "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]
}`

func TestCheckEmitted(t *testing.T) {
	want := []metricSpec{{Name: "run_s", Unit: "s"}, {Name: "hits", Unit: "count"}}
	ok := map[string]metricOut{"run_s": {1, "s"}, "hits": {2, "count"}}
	if err := checkEmitted(want, ok); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]map[string]metricOut{
		"missing": {"run_s": {1, "s"}},
		"extra":   {"run_s": {1, "s"}, "hits": {2, "count"}, "x": {3, "s"}},
		"unit":    {"run_s": {1, "ms"}, "hits": {2, "count"}},
	} {
		if checkEmitted(want, got) == nil {
			t.Errorf("%s metric set accepted", name)
		}
	}
}

func TestServiceScriptShape(t *testing.T) {
	hits, misses := 0, 0
	for c := range svcScripts {
		script, err := svcScript(7, c)
		if err != nil {
			t.Fatal(err)
		}
		uploads := 0
		for pos, r := range script {
			switch r.kind {
			case svcRepeat:
				if r.origin < 0 || r.origin >= pos || string(script[r.origin].body) != string(r.body) {
					t.Errorf("client %d step %d repeats %d with other bytes", c, pos, r.origin)
				}
				hits++
			case svcUpload:
				if uploads > 0 {
					hits++
				} else {
					misses++
				}
				uploads++
			default:
				misses++
			}
		}
	}
	if hits != 6 || misses != 14 {
		t.Errorf("script has %d hits and %d misses per round, the latency classes assume 6 and 14", hits, misses)
	}
}

func TestUploadVariantsKeepTheCircuit(t *testing.T) {
	orig, err := atpg.ParseBench("v", bench.S27)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		text := variant(bench.S27, rng)
		seen[text] = true
		c, err := atpg.ParseBench("v", text)
		if err != nil {
			t.Fatalf("variant %d does not parse: %v\n%s", i, err, text)
		}
		if c.ContentHash() != orig.ContentHash() {
			t.Fatalf("variant %d changed the circuit:\n%s", i, text)
		}
	}
	if len(seen) < 20 {
		t.Errorf("only %d distinct variants out of 20", len(seen))
	}
}
