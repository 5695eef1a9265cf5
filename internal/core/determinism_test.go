package core

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/order"
)

// summarize flattens the determinism-relevant part of a Summary: the
// per-fault status and per-fault pattern cost (the sequence length for
// explicit tests, 0 otherwise), plus the aggregate counters and the
// generation order.
func summarize(s *Summary) string {
	out := fmt.Sprintf("order=%s tested=%d explicit=%d untestable=%d aborted=%d patterns=%d valfail=%d seqorder=%v\n",
		s.Order, s.Tested, s.Explicit, s.Untestable, s.Aborted, s.Patterns, s.ValidationFailures, s.SeqOrder)
	for _, r := range s.Results {
		n := 0
		if r.Seq != nil {
			n = r.Seq.Len()
		}
		out += fmt.Sprintf("%v %s %d\n", r.Fault, r.Status, n)
	}
	return out
}

// TestSeedDeterminism pins the reproducibility contract: the same
// Options.Seed yields an identical Summary across two independent runs.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		a := MustNew(c, Options{Seed: 42}).Run()
		b := MustNew(c, Options{Seed: 42}).Run()
		if sa, sb := summarize(a), summarize(b); sa != sb {
			t.Errorf("%s: two runs with the same seed disagree:\n--- run 1\n%s--- run 2\n%s", name, sa, sb)
		}
	}
}

// TestWorkerCountInvariance pins the sharding contract: per-fault
// statuses and pattern counts are bit-identical regardless of the worker
// count, because every fault's X-fill stream is derived from the seed and
// the fault index and the merge loop commits in fault order.
func TestWorkerCountInvariance(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386"} {
		c := bench.ProfileByName(name).Circuit()
		base := summarize(MustNew(c, Options{Workers: 1}).Run())
		for _, workers := range []int{2, 7, 64} {
			got := summarize(MustNew(c, Options{Workers: workers}).Run())
			if got != base {
				t.Errorf("%s: Workers=%d diverged from Workers=1:\n--- serial\n%s--- workers=%d\n%s",
					name, workers, base, workers, got)
			}
		}
	}
}

// TestOrderingWorkerInvariance extends the contract to every fault
// ordering: for a fixed heuristic the Summary stays bit-identical from
// one worker to NumCPU, because the permutation is a pure function of
// (circuit, heuristic, seed), the merge loop commits in permutation
// order, and X-fill streams stay keyed to canonical fault indices.
func TestOrderingWorkerInvariance(t *testing.T) {
	for _, name := range []string{"s27", "s298"} {
		c := bench.ProfileByName(name).Circuit()
		for _, h := range []order.Heuristic{order.Topological, order.SCOAP, order.ADI} {
			base := summarize(MustNew(c, Options{Workers: 1, Order: h}).Run())
			for _, workers := range []int{4, runtime.NumCPU()} {
				got := summarize(MustNew(c, Options{Workers: workers, Order: h}).Run())
				if got != base {
					t.Errorf("%s/%s: Workers=%d diverged:\n--- serial\n%s--- workers=%d\n%s",
						name, h, workers, base, workers, got)
				}
			}
		}
	}
}

// referenceRuns memoizes the Options.Reference run at one worker per
// (circuit, Compact) pair. The run is a pure function of its inputs, so
// the three reference tests below share it instead of recomputing it.
var referenceRuns = map[string]*Summary{}

func referenceRun(name string, compact bool) *Summary {
	key := fmt.Sprintf("%s/compact=%v", name, compact)
	if s, ok := referenceRuns[key]; ok {
		return s
	}
	s := MustNew(bench.ProfileByName(name).Circuit(), Options{Reference: true, Workers: 1, Compact: compact}).Run()
	referenceRuns[key] = s
	return s
}

// checkReference runs each option set on s27, s298 and s386 and
// requires a Summary bit-identical to the reference run at one worker;
// under Compact the recorded Detects must match element by element.
func checkReference(t *testing.T, compact bool, runs map[string]Options) {
	t.Helper()
	names := make([]string, 0, len(runs))
	for run := range runs {
		names = append(names, run)
	}
	sort.Strings(names)
	for _, name := range []string{"s27", "s298", "s386"} {
		ref := referenceRun(name, compact)
		refS := summarize(ref)
		for _, run := range names {
			opts := runs[run]
			opts.Compact = compact
			got := MustNew(bench.ProfileByName(name).Circuit(), opts).Run()
			label := fmt.Sprintf("%s/%s/compact=%v", name, run, compact)
			if gotS := summarize(got); gotS != refS {
				t.Errorf("%s diverged from reference/1:\n--- reference\n%s--- got\n%s", label, refS, gotS)
				continue
			}
			if compact {
				compareDetects(t, label, ref, got)
			}
		}
	}
}

// TestBatchedSearchInvariance pins the generation-phase batching into
// the determinism contract: the lane-parallel X-fill trials and
// decision probes (the default) must produce a Summary bit-identical to
// the scalar reference path (Options.Reference) — which enumerates the
// identical fill lanes and probe frames one at a time — at every worker
// count, and the reference run itself must not depend on the worker
// count.
func TestBatchedSearchInvariance(t *testing.T) {
	checkReference(t, false, map[string]Options{
		"reference/16": {Reference: true, Workers: 16},
		"default/1":    {Workers: 1},
		"default/4":    {Workers: 4},
		"default/16":   {Workers: 16},
	})
}

// TestEventDrivenInvariance pins the selective-trace substrate into the
// determinism contract: the event-driven kernels (the default) must
// produce a Summary bit-identical to the full-eval reference
// (Options.Reference) at every worker count — Detects included, because
// Compact drops the credit skip filter and records the complete
// detection sets the compactor replays.
func TestEventDrivenInvariance(t *testing.T) {
	checkReference(t, true, map[string]Options{
		"default/1": {Workers: 1},
		"default/4": {Workers: 4},
	})
}

// TestBatchedCreditInvariance pins the word-parallel credit sweep into
// the determinism contract: under Compact every candidate of every
// window is swept, so the batched path (the default) must record the
// same detection sets as the scalar reference (Options.Reference) with
// many workers racing, and the reference itself must not depend on the
// worker count.
func TestBatchedCreditInvariance(t *testing.T) {
	checkReference(t, true, map[string]Options{
		"reference/16": {Reference: true, Workers: 16},
		"default/16":   {Workers: 16},
	})
}

// compareDetects reports the first recorded detection that differs
// between two Summaries of one circuit, per fault.
func compareDetects(t *testing.T, label string, ref, got *Summary) {
	t.Helper()
	for i := range ref.Results {
		ra, rb := ref.Results[i].Seq, got.Results[i].Seq
		if (ra == nil) != (rb == nil) {
			t.Fatalf("%s: sequence presence differs at fault %d", label, i)
		}
		if ra == nil {
			continue
		}
		if len(ra.Detects) != len(rb.Detects) {
			t.Errorf("%s fault %d: reference recorded %d detections, got %d",
				label, i, len(ra.Detects), len(rb.Detects))
			continue
		}
		for j := range ra.Detects {
			if ra.Detects[j] != rb.Detects[j] {
				t.Errorf("%s fault %d: detection %d differs: reference %v, got %v",
					label, i, j, ra.Detects[j], rb.Detects[j])
				break
			}
		}
	}
}

// TestNewRejectsUnknownOrder pins the fail-fast contract: a
// misspelled heuristic must not silently run the natural order under
// the wrong label — New reports it as a construction error (no panic;
// pkg/atpg surfaces it to API consumers).
func TestNewRejectsUnknownOrder(t *testing.T) {
	if _, err := New(bench.NewS27(), Options{Order: "bogus"}); err == nil {
		t.Fatal("New accepted an unknown ordering heuristic")
	}
}

// TestNewRejectsNegativeBudgets pins the other construction errors: a
// negative budget or depth is always a caller bug (zero already means
// "default") and must never be silently reinterpreted.
func TestNewRejectsNegativeBudgets(t *testing.T) {
	c := bench.NewS27()
	for name, opts := range map[string]Options{
		"LocalBacktracks": {LocalBacktracks: -1},
		"SeqBacktracks":   {SeqBacktracks: -5},
		"MaxFrames":       {MaxFrames: -2},
		"VariationBudget": {VariationBudget: -3},
	} {
		if _, err := New(c, opts); err == nil {
			t.Errorf("New accepted negative %s", name)
		}
	}
}

// TestOrderingClassifiesEverything checks that a reordered run still
// classifies the complete universe and never invents validation
// failures: ordering moves the credit chronology, not the search.
func TestOrderingClassifiesEverything(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	total := len(bench.ProfileByName("s298").Circuit().Lines()) * 2
	for _, h := range []order.Heuristic{order.Natural, order.Topological, order.SCOAP, order.ADI} {
		sum := MustNew(c, Options{Order: h}).Run()
		if n := sum.Tested + sum.Untestable + sum.Aborted; n != total {
			t.Errorf("%s: classified %d of %d faults", h, n, total)
		}
		if sum.ValidationFailures != 0 {
			t.Errorf("%s: %d validation failures", h, sum.ValidationFailures)
		}
		if sum.Order != h.Name() {
			t.Errorf("Summary.Order = %q, want %q", sum.Order, h.Name())
		}
	}
}
