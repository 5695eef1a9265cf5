package atpg

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// TestScaleOutFacadeInvariance pins the scale-out contract through the
// public API: at workers 1, 4 and 16, under every cone-set policy, the
// canonical Result JSON is byte-identical to the serial run on the
// default policy. Worker count and cone-set representation are pure
// scheduling and memory choices; the wire format consumers read cannot
// tell them apart.
func TestScaleOutFacadeInvariance(t *testing.T) {
	c := mustBenchmark(t, "s298")
	base := canonicalBytes(t, mustRunTest(t, c, Config{Workers: -1}))
	workerCounts := []int{1, 4, 16}
	if testing.Short() {
		// The race job runs with -short: keep the 16-worker stress,
		// trim the sweep.
		workerCounts = []int{16}
	}
	for _, workers := range workerCounts {
		for _, cones := range []string{ConeSetsAuto, ConeSetsDense, ConeSetsCompressed} {
			got := canonicalBytes(t, mustRunTest(t, c, Config{Workers: workers, ConeSets: cones}))
			if got != base {
				t.Errorf("workers=%d cone_sets=%q: canonical JSON diverged from the serial run", workers, cones)
			}
		}
	}
}

// TestMaxTargetsFacade pins the budgeted-run surface: Config.MaxTargets
// leaves faults pending, and the canonical JSON of the budgeted run is
// worker-count invariant.
func TestMaxTargetsFacade(t *testing.T) {
	c := mustBenchmark(t, "s298")
	k := c.Faults() / 4
	base := mustRunTest(t, c, Config{Workers: -1, MaxTargets: k})
	if base.Pending == 0 {
		t.Fatalf("MaxTargets=%d of %d faults left nothing pending", k, c.Faults())
	}
	if base.Err != nil {
		t.Fatalf("budgeted run reported error %v; a budget is not a cancellation", base.Err)
	}
	want := canonicalBytes(t, base)
	for _, workers := range []int{4, 16} {
		got := canonicalBytes(t, mustRunTest(t, c, Config{Workers: workers, MaxTargets: k}))
		if got != want {
			t.Errorf("workers=%d: budgeted canonical JSON diverged from the serial budgeted run", workers)
		}
	}
}

// TestScaleOutConfigValidation pins the knob surface's error paths:
// unknown cone-set policies and negative budgets are construction
// errors, never silent fallbacks.
func TestScaleOutConfigValidation(t *testing.T) {
	c := mustBenchmark(t, "s27")
	if _, err := New(c, Config{ConeSets: "roaring"}); err == nil || !strings.Contains(err.Error(), "cone-set") {
		t.Errorf("ConeSets=roaring: err = %v, want a cone-set policy error", err)
	}
	if _, err := New(c, Config{MaxTargets: -1}); err == nil || !strings.Contains(err.Error(), "max_targets") {
		t.Errorf("MaxTargets=-1: err = %v, want a max_targets error", err)
	}
	for _, p := range []string{ConeSetsAuto, ConeSetsDense, ConeSetsCompressed} {
		if _, err := New(c, Config{ConeSets: p}); err != nil {
			t.Errorf("ConeSets=%q rejected: %v", p, err)
		}
	}
}

// TestLargeBenchmarkSurface pins the industrial-scale circuit surface:
// the large set resolves through Benchmark, stays out of Benchmarks()
// (the Table 3 experiment set), matches its calibrated fault universe,
// and its compressed cone sets undercut the dense matrix by an order of
// magnitude — the property that makes these circuits runnable at all.
func TestLargeBenchmarkSurface(t *testing.T) {
	large := LargeBenchmarks()
	if len(large) != 2 || large[0].Name != "s15850" || large[1].Name != "s38584" {
		t.Fatalf("LargeBenchmarks() = %+v", large)
	}
	for _, b := range Benchmarks() {
		if b.Name == "s15850" || b.Name == "s38584" {
			t.Errorf("Benchmarks() leaked large circuit %s into the Table 3 set", b.Name)
		}
	}
	c := mustBenchmark(t, "s15850")
	if got, want := c.Faults(), 2*15850; got != want {
		t.Errorf("s15850 faults = %d, want %d", got, want)
	}
	dense, auto, err := c.ConeMemory(ConeSetsAuto)
	if err != nil {
		t.Fatal(err)
	}
	if auto*10 > dense {
		t.Errorf("auto cone sets use %d of %d dense bytes; expected <10%% on s15850", auto, dense)
	}
	if _, _, err := c.ConeMemory("junk"); err == nil {
		t.Error("ConeMemory accepted an unknown policy")
	}
}

// TestProgressCountersSurface pins the progress event's wire shape: it
// carries the commit progress and nothing else — no scheduling counter —
// so its JSON holds exactly the keys kind, done and total, and the final
// event reports the whole run committed.
func TestProgressCountersSurface(t *testing.T) {
	c := mustBenchmark(t, "s27")
	ses, err := New(c, Config{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	var last Event
	ses.OnEvent(func(ev Event) {
		if ev.Kind != EventProgress {
			return
		}
		data, err := json.Marshal(ev)
		if err != nil {
			t.Error(err)
			return
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Error(err)
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []string{"done", "kind", "total"}) {
			t.Errorf("progress event JSON %s carries keys %v, want done, kind, total", data, keys)
		}
		last = ev
	})
	if _, err := ses.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if last.Done != last.Total || last.Total == 0 {
		t.Fatalf("final progress %d/%d", last.Done, last.Total)
	}
}
