package fogbuster

import (
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/core"
	"fogbuster/internal/faults"
	"fogbuster/internal/sim"
)

// TestLargeBudgetedSmoke is the industrial-scale smoke test: the
// s15850- and s38584-class profiles synthesize to their calibrated fault
// universes, their auto-policy cone sets (sim.Topology.ConeFootprint)
// stay far below the dense all-stems matrix, and a budgeted ATPG run
// completes on a small fault budget without a validation failure. It is
// the floor under "the engine runs at industrial node counts", not a
// performance measurement (EXPERIMENTS.md records those).
func TestLargeBudgetedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-profile smoke in -short mode")
	}

	for _, name := range []string{"s15850", "s38584"} {
		p := bench.ProfileByName(name)
		if p == nil {
			t.Fatalf("profile %s missing", name)
		}
		c := p.Circuit()
		if got, want := len(faults.AllDelay(c))/2, p.TargetLines; got != want {
			t.Errorf("%s: %d lines, calibrated for %d", name, got, want)
		}
		topo := sim.NewTopology(c)
		dense, actual := topo.ConeFootprint()
		if actual*4 > dense {
			t.Errorf("%s: cone sets hold %d of %d dense bytes; the auto policy should stay far below the matrix", name, actual, dense)
		}
	}

	// One budgeted run per circuit. The budgets and backtrack limits are
	// tiny on purpose: the smoke pins "completes and classifies in-budget
	// faults", CI-affordably.
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"s15850", core.Options{Workers: 16, MaxTargets: 8}},
		{"s38584", core.Options{Workers: 4, MaxTargets: 2, LocalBacktracks: 10, SeqBacktracks: 10}},
	} {
		c := bench.ProfileByName(tc.name).Circuit()
		sum := core.MustNew(c, tc.opts).Run()
		classified := sum.Explicit + sum.Untestable + sum.Aborted
		if classified == 0 {
			t.Errorf("%s: budgeted run classified no fault explicitly", tc.name)
		}
		if sum.ValidationFailures != 0 {
			t.Errorf("%s: %d validation failures", tc.name, sum.ValidationFailures)
		}
	}
}
