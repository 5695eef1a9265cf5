package core

import (
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/logic"
)

// TestRunS27 runs the full flow on the exact s27 benchmark, the one
// circuit where the paper's Table 3 row (39 tested, 11 untestable, 0
// aborted, 40 patterns) is directly comparable.
func TestRunS27(t *testing.T) {
	sum := MustNew(bench.NewS27(), Options{}).Run()
	t.Logf("s27: tested=%d (explicit %d) untestable=%d aborted=%d patterns=%d",
		sum.Tested, sum.Explicit, sum.Untestable, sum.Aborted, sum.Patterns)
	if sum.ValidationFailures != 0 {
		t.Fatalf("%d generated sequences failed independent validation", sum.ValidationFailures)
	}
	if got := sum.Tested + sum.Untestable + sum.Aborted; got != 50 {
		t.Fatalf("classified %d faults, want 50", got)
	}
	if sum.Tested < 20 {
		t.Fatalf("tested only %d/50; expected the majority (paper: 39)", sum.Tested)
	}
	if sum.Aborted > 5 {
		t.Fatalf("%d aborts (paper: 0)", sum.Aborted)
	}
}

// TestRunC17 exercises the combinational path: no state register, so no
// propagation or synchronization is ever needed and everything is tested.
func TestRunC17(t *testing.T) {
	sum := MustNew(bench.NewC17(), Options{}).Run()
	if sum.Tested != 34 || sum.Untestable != 0 || sum.Aborted != 0 {
		t.Fatalf("c17: tested=%d untestable=%d aborted=%d, want 34/0/0", sum.Tested, sum.Untestable, sum.Aborted)
	}
	if sum.ValidationFailures != 0 {
		t.Fatal("validation failures on c17")
	}
}

// TestNonRobustReducesUntestable reproduces the paper's concluding claim:
// a non-robust fault model decreases the number of untestable faults.
func TestNonRobustReducesUntestable(t *testing.T) {
	rob := MustNew(bench.NewS27(), Options{}).Run()
	non := MustNew(bench.NewS27(), Options{Algebra: logic.NonRobust}).Run()
	t.Logf("robust: tested=%d untestable=%d; non-robust: tested=%d untestable=%d",
		rob.Tested, rob.Untestable, non.Tested, non.Untestable)
	if non.Untestable > rob.Untestable {
		t.Fatalf("non-robust untestable %d > robust %d", non.Untestable, rob.Untestable)
	}
}

// TestFaultSimCredit: with fault simulation off, every tested fault is
// explicit; with it on, pattern counts can only shrink.
func TestFaultSimCredit(t *testing.T) {
	with := MustNew(bench.NewS27(), Options{}).Run()
	without := MustNew(bench.NewS27(), Options{DisableFaultSim: true}).Run()
	if with.Explicit > without.Explicit {
		t.Fatalf("fault sim increased explicit targets: %d > %d", with.Explicit, without.Explicit)
	}
	if without.Explicit != without.Tested {
		t.Fatalf("without fault sim, explicit %d != tested %d", without.Explicit, without.Tested)
	}
	if with.Patterns > without.Patterns {
		t.Fatalf("fault sim increased patterns: %d > %d", with.Patterns, without.Patterns)
	}
}

// TestTimedHandoff exercises the paper's future-work extension: computing
// arrival and stabilization times so that more PPO values can be handed
// to the sequential engine. A small variation budget may only help, a
// huge one must degenerate to the pure robust behaviour.
func TestTimedHandoff(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	robust := MustNew(c, Options{}).Run()
	timed := MustNew(c, Options{VariationBudget: 1}).Run()
	huge := MustNew(c, Options{VariationBudget: 1 << 20}).Run()
	t.Logf("tested: robust=%d timed(v=1)=%d timed(v=huge)=%d", robust.Tested, timed.Tested, huge.Tested)
	if timed.ValidationFailures != 0 {
		t.Fatalf("timed handoff produced %d validation failures", timed.ValidationFailures)
	}
	if timed.Untestable > robust.Untestable {
		t.Fatalf("timing refinement increased untestable: %d > %d", timed.Untestable, robust.Untestable)
	}
	if huge.Tested != robust.Tested || huge.Untestable != robust.Untestable {
		t.Fatalf("huge budget should match robust: %d/%d vs %d/%d",
			huge.Tested, huge.Untestable, robust.Tested, robust.Untestable)
	}
}
