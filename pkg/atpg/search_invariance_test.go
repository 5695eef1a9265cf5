package atpg

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// readBenchS27 loads the distribution-format s27 through the ReadBench
// path, so the invariance below also covers file-parsed circuits.
func readBenchS27(t *testing.T) *Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "s27.bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := ReadBench("s27", f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBatchedSearchFacadeInvariance restates the reference contract
// over the wire format consumers read: the canonical JSON of a Result
// is byte-identical between the default (batched, event-driven) run and
// the reference run (Config.reference: scalar search and credit, full
// levelized walks) at 1, 4 and 16 workers — on a built-in circuit and
// on the ReadBench path.
func TestBatchedSearchFacadeInvariance(t *testing.T) {
	circuits := []struct {
		name string
		c    *Circuit
	}{
		{"s208", mustBenchmark(t, "s208")},
		{"s27-file", readBenchS27(t)},
	}
	for _, tc := range circuits {
		base := ""
		for _, workers := range []int{1, 4, 16} {
			for _, reference := range []bool{false, true} {
				res := mustRunTest(t, tc.c, Config{Workers: workers, Seed: 5, reference: reference})
				got := canonicalBytes(t, res)
				if base == "" {
					base = got
				} else if got != base {
					t.Errorf("%s: Workers=%d reference=%v diverged from the baseline run",
						tc.name, workers, reference)
				}
			}
		}
	}
}

// TestBatchedSearchCancelInvariance is the cancel-mid-search variant:
// cancelling as soon as the first progress commits must leave a
// coherent partial result whose classified prefix matches the full run
// fault for fault — on both paths, so an interrupted default run can
// never commit anything its reference twin would not.
func TestBatchedSearchCancelInvariance(t *testing.T) {
	c := mustBenchmark(t, "s641")
	full := mustRunTest(t, c, Config{Workers: 2})
	for _, reference := range []bool{false, true} {
		ses, err := New(c, Config{Workers: 2, reference: reference})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		ses.OnEvent(func(Event) { once.Do(cancel) })
		res, err := ses.Run(ctx)
		cancel()
		if err != nil && err != context.Canceled {
			t.Fatalf("reference=%v: Run returned %v", reference, err)
		}
		if res == nil {
			t.Fatalf("reference=%v: no partial result", reference)
		}
		coherent(t, res)
		for i, fr := range res.Faults {
			if fr.Status == StatusPending {
				continue
			}
			if want := full.Faults[i].Status; fr.Status != want {
				t.Fatalf("reference=%v: %s committed as %s, full run says %s",
					reference, fr.Fault, fr.Status, want)
			}
		}
	}
}
