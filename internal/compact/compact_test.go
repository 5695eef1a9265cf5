package compact

import (
	"fmt"
	"runtime"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/core"
	"fogbuster/internal/faults"
	"fogbuster/internal/sim"
)

func runCompacted(name string, workers int) (*core.Summary, *core.CompactionStats) {
	c := bench.ProfileByName(name).Circuit()
	sum := core.MustNew(c, core.Options{Compact: true, Workers: workers}).Run()
	return sum, Apply(c, sum, Options{})
}

// TestCompactionInvariants pins the acceptance contract on the bench
// circuits: compaction never changes a fault status (Tested stays
// explicit + credit), the pattern accounting is consistent, every
// detected fault stays covered by a kept sequence, and on circuits with
// redundant test sets the vector count strictly shrinks.
func TestCompactionInvariants(t *testing.T) {
	shrinks := map[string]bool{"s298": true, "s344": true, "s386": true}
	for _, name := range []string{"s27", "s208", "s298", "s344", "s386"} {
		base := core.MustNew(bench.ProfileByName(name).Circuit(), core.Options{}).Run()
		sum, st := runCompacted(name, 1)

		if sum.Tested != base.Tested || sum.Explicit != base.Explicit ||
			sum.Untestable != base.Untestable || sum.Aborted != base.Aborted {
			t.Errorf("%s: compact run changed the classification: %d/%d/%d/%d vs %d/%d/%d/%d",
				name, sum.Tested, sum.Explicit, sum.Untestable, sum.Aborted,
				base.Tested, base.Explicit, base.Untestable, base.Aborted)
		}
		for i := range sum.Results {
			if sum.Results[i].Status != base.Results[i].Status {
				t.Errorf("%s: fault %v status %v, want %v (Compact must not change credit)",
					name, sum.Results[i].Fault, sum.Results[i].Status, base.Results[i].Status)
			}
		}
		if st.PatternsBefore != base.Patterns || st.PatternsBefore != sum.Patterns {
			t.Errorf("%s: PatternsBefore %d, want %d", name, st.PatternsBefore, base.Patterns)
		}
		if st.Kept+st.Dropped != st.Sequences {
			t.Errorf("%s: kept %d + dropped %d != sequences %d", name, st.Kept, st.Dropped, st.Sequences)
		}
		if !st.Complete {
			t.Errorf("%s: recorded detection sets should cover every detected fault", name)
		}
		if st.PatternsAfter > st.PatternsBefore {
			t.Errorf("%s: compaction grew the test set: %d -> %d", name, st.PatternsBefore, st.PatternsAfter)
		}
		if shrinks[name] && st.PatternsAfter >= st.PatternsBefore {
			t.Errorf("%s: expected a strictly smaller test set, got %d -> %d",
				name, st.PatternsBefore, st.PatternsAfter)
		}
		follows := 0
		for _, r := range sum.Results {
			if r.Seq != nil && r.Seq.Follows != nil {
				follows++
			}
		}
		if follows != st.Splices {
			t.Errorf("%s: %d sequences marked Follows, stats count %d splices", name, follows, st.Splices)
		}
		checkCoverage(t, name, sum)
	}
}

// TestApplyWithoutRecordedDetects pins the conservative path: a summary
// produced without Options.Compact carries no detection sets, so the
// credited faults cannot be re-confirmed and Apply must leave every
// sequence untouched rather than splice unsoundly.
func TestApplyWithoutRecordedDetects(t *testing.T) {
	c := bench.ProfileByName("s386").Circuit()
	sum := core.MustNew(c, core.Options{}).Run()
	st := Apply(c, sum, Options{})
	if st.Dropped != 0 || st.Splices != 0 || st.PatternsAfter != st.PatternsBefore {
		t.Fatalf("summary without recorded detection sets was mutated: %+v", *st)
	}
	if st.Complete {
		t.Fatal("stats claim complete coverage without recorded detection sets (CLIs use this flag to exit non-zero)")
	}
}

// checkCoverage re-derives the cover from the kept sequences: every
// fault classified as detected must be the target of a kept sequence or
// appear in a kept sequence's recorded detection set.
func checkCoverage(t *testing.T, name string, sum *core.Summary) {
	t.Helper()
	covered := make(map[faults.Delay]bool)
	for _, r := range sum.Results {
		if r.Seq == nil || r.Seq.Dropped {
			continue
		}
		covered[r.Seq.Fault] = true
		for _, f := range r.Seq.Detects {
			covered[f] = true
		}
	}
	for _, r := range sum.Results {
		if r.Status.Detected() && !covered[r.Fault] {
			t.Errorf("%s: detected fault %v lost by compaction", name, r.Fault)
		}
	}
}

// summarize flattens everything compaction-relevant: statuses, kept and
// dropped flags, per-sequence vector counts (splices shorten them), the
// generation order and the aggregate statistics.
func summarize(sum *core.Summary, st *core.CompactionStats) string {
	out := fmt.Sprintf("tested=%d explicit=%d patterns=%d order=%v stats=%+v\n",
		sum.Tested, sum.Explicit, sum.Patterns, sum.SeqOrder, *st)
	for _, r := range sum.Results {
		n, dropped := 0, false
		if r.Seq != nil {
			n, dropped = r.Seq.Len(), r.Seq.Dropped
		}
		out += fmt.Sprintf("%v %s %d %v\n", r.Fault, r.Status, n, dropped)
	}
	return out
}

// TestCompactionWorkerInvariance extends the §4 determinism contract to
// the compacted result: the compacted Summary is bit-identical at one
// worker and at NumCPU workers (and an odd count in between), because
// the recorded detection sets are computed without the racy skip filter
// and compaction is a pure function of the Summary.
func TestCompactionWorkerInvariance(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386"} {
		sum1, st1 := runCompacted(name, 1)
		base := summarize(sum1, st1)
		for _, workers := range []int{3, runtime.NumCPU()} {
			sum, st := runCompacted(name, workers)
			if got := summarize(sum, st); got != base {
				t.Errorf("%s: compacted summary diverged at Workers=%d:\n--- workers=1\n%s--- workers=%d\n%s",
					name, workers, base, workers, got)
			}
		}
	}
}

// TestCompactionFullEvalInvariance: the splice re-confirmations accept
// exactly the same overlaps on the event-driven kernels and the full
// levelized reference, end to end — including when the engine run
// itself switches paths.
func TestCompactionFullEvalInvariance(t *testing.T) {
	for _, name := range []string{"s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		sumEvt := core.MustNew(c, core.Options{Compact: true}).Run()
		stEvt := Apply(c, sumEvt, Options{})
		cRef := bench.ProfileByName(name).Circuit()
		sumRef := core.MustNew(cRef, core.Options{Compact: true, Reference: true}).Run()
		stRef := Apply(cRef, sumRef, Options{FullEval: true})
		if got, want := summarize(sumEvt, stEvt), summarize(sumRef, stRef); got != want {
			t.Errorf("%s: compaction diverged between kernels:\n--- event\n%s--- full\n%s", name, got, want)
		}
	}
}

// TestMergeFrames covers the three-valued frame merge underlying the
// splice phase.
func TestMergeFrames(t *testing.T) {
	x, o, i := sim.X, sim.Lo, sim.Hi
	got, ok := mergeFrames(
		[][]sim.V3{{x, o, i}},
		[][]sim.V3{{i, x, i}},
	)
	if !ok || got[0][0] != i || got[0][1] != o || got[0][2] != i {
		t.Fatalf("merge = %v, %v", got, ok)
	}
	if _, ok := mergeFrames([][]sim.V3{{o}}, [][]sim.V3{{i}}); ok {
		t.Fatal("conflicting frames merged")
	}
}

// TestDroppedSequencesFlagged checks the in-place marking: dropped
// sequences stay in the Summary (their fault is still Tested) but carry
// the Dropped flag, and the kept count matches the unflagged count.
func TestDroppedSequencesFlagged(t *testing.T) {
	sum, st := runCompacted("s386", 1)
	kept, dropped := 0, 0
	for _, r := range sum.Results {
		if r.Seq == nil {
			continue
		}
		if r.Seq.Dropped {
			dropped++
			if r.Status != core.Tested {
				t.Errorf("dropped sequence for %v has status %v", r.Fault, r.Status)
			}
		} else {
			kept++
		}
	}
	if kept != st.Kept || dropped != st.Dropped {
		t.Fatalf("flag counts kept=%d dropped=%d, stats %d/%d", kept, dropped, st.Kept, st.Dropped)
	}
	if st.Dropped == 0 {
		t.Fatal("s386 is expected to drop sequences")
	}
}
