package atpg

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// runShard runs one shard of a distributed run.
func runShard(t *testing.T, c *Circuit, cfg Config, shards, idx int) *Result {
	t.Helper()
	cfg.Shards, cfg.ShardIndex = shards, idx
	return mustRunTest(t, c, cfg)
}

// TestMergeDeterminismMatrix pins the tentpole contract: MergeResults
// over every tested shard split — even splits, ragged splits that do
// not divide the fault universe, budgeted and reordered runs — produces
// canonical JSON byte-identical to the unsharded single-process run.
func TestMergeDeterminismMatrix(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		cfg     Config
		splits  []int
	}{
		// 50 faults: 4- and 8-way splits are ragged.
		{"s27", Config{Seed: 42}, []int{1, 2, 4, 8}},
		{"s27", Config{Algebra: AlgebraNonRobust, Workers: 2}, []int{2}},
		// Ordering heuristic plus a target budget: shards tile the
		// budgeted prefix of the permutation, not the raw fault order.
		{"s27", Config{Order: OrderADI, MaxTargets: 30, Seed: 7}, []int{4}},
		{"s298", Config{Workers: 3}, []int{2}},
	} {
		direct := canonicalBytes(t, mustRunTest(t, mustBenchmark(t, tc.circuit), tc.cfg))
		for _, shards := range tc.splits {
			c := mustBenchmark(t, tc.circuit)
			parts := make([]*Result, shards)
			for i := range parts {
				parts[i] = runShard(t, c, tc.cfg, shards, i)
			}
			merged, err := MergeResults(parts...)
			if err != nil {
				t.Fatalf("%s %+v shards=%d: merge: %v", tc.circuit, tc.cfg, shards, err)
			}
			if got := canonicalBytes(t, merged); got != direct {
				t.Errorf("%s %+v: %d-way merge diverged from the unsharded run", tc.circuit, tc.cfg, shards)
			}
		}
	}
}

// cancelAfterProgress cancels the run after n committed positions and
// returns the partial result (res.Err must be non-nil).
func runCancelled(t *testing.T, ses *Session, n int) *Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	ses.OnEvent(func(ev Event) {
		if ev.Kind == EventProgress {
			if seen++; seen == n {
				cancel()
			}
		}
	})
	res, err := ses.Run(ctx)
	if err == nil {
		t.Fatal("run completed despite cancellation")
	}
	if res == nil || res.Err == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	return res
}

// TestMergeAbortedThenResumedShard kills one shard mid-run, resumes it
// from its checkpoint, and proves the merge of the resumed part with
// the untouched parts is still byte-identical to the unsharded run —
// the failure model of the coordinator in miniature.
func TestMergeAbortedThenResumedShard(t *testing.T) {
	cfg := Config{Seed: 42}
	c := mustBenchmark(t, "s27")
	direct := canonicalBytes(t, mustRunTest(t, c, cfg))

	shardCfg := cfg
	shardCfg.Shards, shardCfg.ShardIndex = 2, 1
	ses, err := New(c, shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	partial := runCancelled(t, ses, 5)
	if sh := partial.Shard; sh == nil || sh.Cursor >= sh.Hi {
		t.Fatalf("shard not interrupted: %+v", partial.Shard)
	}
	ckpt, err := ses.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the checkpoint through its wire form: resume must work
	// from bytes, not shared memory.
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, ckpt); err != nil {
		t.Fatal(err)
	}
	var wire Checkpoint
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	res2, err := Resume(c, &wire)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := res2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	other := runShard(t, c, cfg, 2, 0)

	merged, err := MergeResults(other, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalBytes(t, merged); got != direct {
		t.Error("merge with an aborted-then-resumed shard diverged from the unsharded run")
	}

	// The aborted partial may also be passed alongside its continuation
	// (the coordinator does when it kept both): overlap is benign.
	merged2, err := MergeResults(other, partial, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalBytes(t, merged2); got != direct {
		t.Error("merge with overlapping partial+resumed parts diverged from the unsharded run")
	}
}

// TestCheckpointResumeUnsharded proves checkpoint/resume of an ordinary
// (unsharded) run: cancel mid-flight, checkpoint the partial result,
// resume from its wire form, and the final Result is byte-identical to
// an uninterrupted run.
func TestCheckpointResumeUnsharded(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 42},
		{Order: OrderADI, Seed: 7, Workers: 2},
	} {
		c := mustBenchmark(t, "s27")
		direct := canonicalBytes(t, mustRunTest(t, c, cfg))

		ses, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		partial := runCancelled(t, ses, 9)
		ckpt, err := CheckpointOf(partial, c.ContentHash(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt.Cursor == 0 || ckpt.Cursor >= c.Faults() {
			t.Fatalf("implausible checkpoint cursor %d", ckpt.Cursor)
		}
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, ckpt); err != nil {
			t.Fatal(err)
		}
		var wire Checkpoint
		if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
			t.Fatal(err)
		}
		ses2, err := Resume(c, &wire)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ses2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalBytes(t, resumed); got != direct {
			t.Errorf("%+v: resumed run diverged from the uninterrupted run", cfg)
		}
	}
}

// TestLiveCheckpointResume takes Session.Checkpoint mid-run — not from
// a returned partial result — resumes from it, and requires the same
// byte-identity. This is the path the service's periodic snapshots use.
// The snapshot reads the engine's committed state under the merge loop's
// commit lock, so it is taken both inside an OnEvent callback (events
// fire after their position is committed and the lock released) and
// from a goroutine racing a multi-worker run.
func TestLiveCheckpointResume(t *testing.T) {
	t.Run("event-cut", func(t *testing.T) {
		cfg := Config{Seed: 42}
		c := mustBenchmark(t, "s27")
		direct := canonicalBytes(t, mustRunTest(t, c, cfg))

		ses, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ckpt *Checkpoint
		seen := 0
		ses.OnEvent(func(ev Event) {
			if ev.Kind == EventProgress {
				if seen++; seen == 7 {
					// The engine committed this position before the event
					// fired, so the snapshot covers exactly 7 positions.
					var err error
					if ckpt, err = ses.Checkpoint(); err != nil {
						t.Error(err)
					}
					cancel()
				}
			}
		})
		if _, err := ses.Run(ctx); err == nil {
			t.Fatal("run completed despite cancellation")
		}
		if ckpt == nil {
			t.Fatal("no mid-run checkpoint taken")
		}
		if ckpt.Cursor != 7 {
			t.Fatalf("mid-run checkpoint cursor = %d, want 7", ckpt.Cursor)
		}
		assertResumesTo(t, c, ckpt, direct)
	})

	t.Run("concurrent-snapshots", func(t *testing.T) {
		cfg := Config{Seed: 42, Workers: 4}
		c := mustBenchmark(t, "s298")
		direct := canonicalBytes(t, mustRunTest(t, c, cfg))

		ses, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		snaps := make(chan []*Checkpoint)
		go func() {
			// Keep the first snapshot at every new cursor.
			var kept []*Checkpoint
			last, n := -1, 0
			defer func() {
				t.Logf("%d snapshots, %d distinct cursors", n, len(kept))
				snaps <- kept
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ck, err := ses.Checkpoint()
				if err != nil {
					t.Error(err)
					return
				}
				n++
				if msg := incoherence(ck.Result); msg != "" {
					t.Errorf("snapshot at cursor %d is incoherent: %s", ck.Cursor, msg)
					return
				}
				switch {
				case ck.Cursor < last:
					t.Errorf("snapshot cursor went back from %d to %d", last, ck.Cursor)
					return
				case ck.Cursor > last:
					kept = append(kept, ck)
					last = ck.Cursor
				}
			}
		}()
		_, err = ses.Run(context.Background())
		close(stop)
		kept := <-snaps
		if err != nil {
			t.Fatal(err)
		}
		var mid []*Checkpoint
		for _, ck := range kept {
			if ck.Cursor > 0 && ck.Cursor < c.Faults() {
				mid = append(mid, ck)
			}
		}
		if len(mid) == 0 {
			t.Fatal("no snapshot fell inside the run; the test has no signal")
		}
		// Resume the first, middle and last mid-run snapshots.
		for _, k := range []int{0, len(mid) / 2, len(mid) - 1} {
			assertResumesTo(t, c, mid[k], direct)
		}
	})
}

// incoherence describes how a snapshot's counters disagree with its
// per-fault statuses and sequences, or returns "" when they agree.
func incoherence(r *Result) string {
	want := Result{Faults: r.Faults}
	want.tally()
	got := [...]int{r.Tested, r.Explicit, r.Untestable, r.Aborted, r.Pending, r.Patterns}
	exp := [...]int{want.Tested, want.Explicit, want.Untestable, want.Aborted, want.Pending, want.Patterns}
	if got != exp {
		return fmt.Sprintf("counters tested/explicit/untestable/aborted/pending/patterns %v, statuses imply %v", got, exp)
	}
	for _, fr := range r.Faults {
		if (fr.Status == StatusTested) != (fr.Seq != nil) {
			return fmt.Sprintf("fault %s is %s with sequence %v", fr.Fault, fr.Status, fr.Seq != nil)
		}
	}
	return ""
}

// assertResumesTo resumes ckpt through its wire encoding and requires
// the canonical bytes of the uninterrupted run. Before it runs, the
// resumed session's own checkpoint — the engine's preload stitched with
// the prefix — must encode to the bytes it was resumed from.
func assertResumesTo(t *testing.T, c *Circuit, ckpt *Checkpoint, direct string) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, ckpt); err != nil {
		t.Fatal(err)
	}
	var wire Checkpoint
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	ses, err := Resume(c, &wire)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ses.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var againBuf bytes.Buffer
	if err := EncodeJSON(&againBuf, again); err != nil {
		t.Fatal(err)
	}
	if againBuf.String() != buf.String() {
		t.Errorf("resumed session's pre-run checkpoint differs from the checkpoint at cursor %d", ckpt.Cursor)
	}
	resumed, err := ses.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalBytes(t, resumed); got != direct {
		t.Errorf("resume from the live checkpoint at cursor %d diverged from the uninterrupted run", ckpt.Cursor)
	}
}

// TestMergeResultsErrors pins the failure modes: a coverage gap names
// the unaccounted range, ordinary results are rejected, and shards of
// different runs do not merge.
func TestMergeResultsErrors(t *testing.T) {
	cfg := Config{Seed: 42}
	c := mustBenchmark(t, "s27")

	part0 := runShard(t, c, cfg, 2, 0)
	part1 := runShard(t, c, cfg, 2, 1)

	if _, err := MergeResults(part0); err == nil || !strings.Contains(err.Error(), "unaccounted") {
		t.Errorf("missing shard: err = %v, want coverage gap naming the unaccounted range", err)
	}
	if _, err := MergeResults(); err == nil {
		t.Error("empty merge succeeded")
	}
	plain := mustRunTest(t, c, cfg)
	if _, err := MergeResults(plain); err == nil || !strings.Contains(err.Error(), "not a shard result") {
		t.Errorf("plain result: err = %v, want shard-result rejection", err)
	}
	otherCfg := cfg
	otherCfg.Seed = 43
	foreign := runShard(t, c, otherCfg, 2, 1)
	if _, err := MergeResults(part0, foreign); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("mixed configs: err = %v, want configuration mismatch", err)
	}
	_ = part1

	// A decoded part whose total exceeds the fault universe is an error,
	// not an allocation sized by the wire.
	for _, total := range []int{1 << 50, -1} {
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, part0); err != nil {
			t.Fatal(err)
		}
		var bogus Result
		if err := json.Unmarshal(buf.Bytes(), &bogus); err != nil {
			t.Fatal(err)
		}
		bogus.Shard.Total = total
		bogus.Shard.Lo, bogus.Shard.Hi, bogus.Shard.Cursor, bogus.Shard.Positions = 0, 0, 0, nil
		if _, err := MergeResults(&bogus); err == nil || !strings.Contains(err.Error(), "targets") {
			t.Errorf("total %d: err = %v, want a targeted-positions error", total, err)
		}
	}
}

// TestResumeErrors pins Resume's validation: wrong circuit, corrupt
// key, nil inputs.
func TestResumeErrors(t *testing.T) {
	cfg := Config{Seed: 42}
	c := mustBenchmark(t, "s27")
	ses, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	partial := runCancelled(t, ses, 5)
	ckpt, err := CheckpointOf(partial, c.ContentHash(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(mustBenchmark(t, "s298"), ckpt); err == nil || !strings.Contains(err.Error(), "different circuit") {
		t.Errorf("foreign circuit: err = %v", err)
	}
	bad := *ckpt
	bad.ConfigKey = "{"
	if _, err := Resume(c, &bad); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt key: err = %v", err)
	}
	if _, err := Resume(c, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
}

// TestShardConfigValidation pins the Config-level shard checks.
func TestShardConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Shards: -1},
		{ShardIndex: 2},
		{Shards: 2, ShardIndex: 2},
		{Shards: 2, Compact: true},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v validated", cfg)
		}
	}
	if err := (Config{Shards: 2, ShardIndex: 1}).Validate(); err != nil {
		t.Errorf("valid shard config rejected: %v", err)
	}
}
