package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"fogbuster/internal/bench"
)

// TestBroadcastStealInvariance pins the scale-out contract of the claim
// path: the shared claim counter hands positions to 1, 4 or 16 workers in
// whatever order they race for them, and the Summary stays bit-identical
// across them. The 1-worker run is the reference the 4- and 16-worker
// runs are compared against. The 16-worker rows keep the heaviest
// contention on the counter and the reorder buffer under the race
// detector (-short).
func TestBroadcastStealInvariance(t *testing.T) {
	circuits := []string{"s27", "s298", "s386"}
	if testing.Short() {
		// The race job runs with -short: keep the 16-worker stress on a
		// non-trivial circuit, trim the sweep.
		circuits = []string{"s27", "s298"}
	}
	for _, name := range circuits {
		c := bench.ProfileByName(name).Circuit()
		base := summarize(MustNew(c, Options{Workers: 1}).Run())
		for _, workers := range []int{4, 16} {
			got := summarize(MustNew(c, Options{Workers: workers}).Run())
			if got != base {
				t.Errorf("%s: Workers=%d diverged from the 1-worker run:\n--- 1 worker\n%s--- got\n%s",
					name, workers, base, got)
			}
		}
	}
}

// TestBroadcastStealOrderingInvariance extends the contract to a
// non-trivial targeting permutation: under the ADI ordering the claim
// counter walks permutation positions, not fault indices, and 4 and 16
// workers still reproduce the 1-worker Summary bit for bit.
func TestBroadcastStealOrderingInvariance(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	base := summarize(MustNew(c, Options{Workers: 1, Order: "adi"}).Run())
	for _, workers := range []int{4, 16} {
		got := summarize(MustNew(c, Options{Workers: workers, Order: "adi"}).Run())
		if got != base {
			t.Errorf("adi: Workers=%d diverged from the 1-worker run", workers)
		}
	}
}

// TestMaxTargetsPrefix pins the budgeted-run semantics: MaxTargets=K
// processes exactly the first K positions of the targeting permutation,
// their outcomes bit-identical to the full run's (a budget is a
// deterministic cancellation), every later fault Pending unless an
// in-budget sequence credited it, and the whole budgeted Summary
// invariant across worker counts.
func TestMaxTargetsPrefix(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	full := MustNew(c, Options{Workers: 1}).Run()
	n := len(full.Results)
	k := n / 3

	budget := MustNew(c, Options{Workers: 1, MaxTargets: k}).Run()
	// Positions 0..k-1 (natural order: fault indices 0..k-1) must match
	// the full run exactly; beyond the budget only Pending and
	// TestedBySim may appear.
	pending := 0
	for i, r := range budget.Results {
		if i < k {
			if r.Status != full.Results[i].Status {
				t.Errorf("fault %d (in budget): status %v, full run says %v", i, r.Status, full.Results[i].Status)
			}
			continue
		}
		switch r.Status {
		case Pending:
			pending++
		case TestedBySim:
		default:
			t.Errorf("fault %d (beyond budget): status %v", i, r.Status)
		}
	}
	if pending == 0 {
		t.Fatalf("MaxTargets=%d of %d left no fault pending; budget not exercised", k, n)
	}
	if len(budget.SeqOrder) == 0 {
		t.Fatal("budgeted run generated no sequences")
	}

	base := summarize(budget)
	for _, workers := range []int{4, 16} {
		got := summarize(MustNew(c, Options{Workers: workers, MaxTargets: k}).Run())
		if got != base {
			t.Errorf("MaxTargets=%d: Workers=%d diverged from serial budgeted run", k, workers)
		}
	}
}

// TestStealClaimerExhaustive pins the claim counter directly: under
// 16-way contention every position of a shard window [lo, hi) with
// lo > 0 is handed out exactly once, and no position outside it ever is.
func TestStealClaimerExhaustive(t *testing.T) {
	const lo, hi, workers = 137, 1137, 16
	rs := &runState{lo: lo, hi: hi}
	var seen [hi]atomic.Int32
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				p, ok := rs.claim()
				if !ok {
					done <- struct{}{}
					return
				}
				seen[p].Add(1)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for p := range seen {
		want := int32(0)
		if p >= lo {
			want = 1
		}
		if got := seen[p].Load(); got != want {
			t.Fatalf("position %d claimed %d times, want %d", p, got, want)
		}
	}
}

// TestCancelMidStealCoherent checks cancellation coherence at 16
// workers: a context cancelled mid-run leaves a committed prefix that is
// bit-identical to the same prefix of an uncancelled run — outcomes
// still in flight or parked in the reorder buffer never let a wrong or
// out-of-order outcome commit.
func TestCancelMidStealCoherent(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	full := MustNew(c, Options{Workers: 1}).Run()

	for _, cut := range []int{1, 7, 25} {
		ctx, cancel := context.WithCancel(context.Background())
		committed := 0
		e := MustNew(c, Options{
			Workers: 16,
			OnEvent: func(ev Event) {
				if ev.Kind == EventProgress {
					committed = ev.Done
					if ev.Done == cut {
						cancel()
					}
				}
			},
		})
		sum, err := e.RunContext(ctx)
		cancel()
		if err == nil {
			t.Fatalf("cut=%d: cancelled run reported no error", cut)
		}
		if committed < cut {
			t.Fatalf("cut=%d: only %d positions committed", cut, committed)
		}
		// Every fault the truncated run classified explicitly must carry
		// the status the full run assigned it. (Credit chronology can
		// differ in the tail — a cancelled run may miss credits — so only
		// explicit statuses are compared.)
		for i, r := range sum.Results {
			if r.Status == Pending || r.Status == TestedBySim {
				continue
			}
			if want := full.Results[i].Status; r.Status != want {
				t.Errorf("cut=%d: fault %d committed %v, full run says %v", cut, i, r.Status, want)
			}
			if r.Seq != nil && full.Results[i].Seq != nil && r.Seq.Len() != full.Results[i].Seq.Len() {
				t.Errorf("cut=%d: fault %d sequence length %d, full run says %d", cut, i, r.Seq.Len(), full.Results[i].Seq.Len())
			}
		}
	}
}

// TestBroadcastCountersObservable pins what an OnEvent observer sees:
// the event stream carries no scheduling-dependent value, so a 1-worker
// and a 16-worker run emit the same events in the same order, equal
// field by field (committed sequences compared by content).
func TestBroadcastCountersObservable(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	stream := func(workers int) []Event {
		var evs []Event
		MustNew(c, Options{Workers: workers, OnEvent: func(ev Event) { evs = append(evs, ev) }}).Run()
		return evs
	}
	serial, wide := stream(1), stream(16)
	kinds := map[EventKind]int{}
	for _, ev := range serial {
		kinds[ev.Kind]++
	}
	if len(kinds) != 4 {
		t.Fatalf("s298 stream exercised only event kinds %v", kinds)
	}
	if len(serial) != len(wide) {
		t.Fatalf("1 worker emitted %d events, 16 workers %d", len(serial), len(wide))
	}
	for k := range serial {
		if !reflect.DeepEqual(serial[k], wide[k]) {
			t.Fatalf("event %d differs:\n 1 worker:   %+v\n16 workers: %+v", k, serial[k], wide[k])
		}
	}
}
