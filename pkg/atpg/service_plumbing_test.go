package atpg

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestReadBench drives the io.Reader constructor with the real
// ISCAS'89 s27 distribution file in testdata — header comments, blank
// lines, alignment spaces and all — and requires the parsed circuit to
// be content-identical to the embedded benchmark: same hash, and a full
// Session.Run byte-identical to the built-in circuit's. Malformed input
// must still error.
func TestReadBench(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "s27.bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := ReadBench("s27", f)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "s27" {
		t.Fatalf("name = %q, want s27", c.Name())
	}
	if c.Faults() != 50 {
		t.Fatalf("s27 has %d delay faults, want 50", c.Faults())
	}
	builtin, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	if c.ContentHash() != builtin.ContentHash() {
		t.Fatal("distribution-format s27 hashes differently from the embedded benchmark")
	}
	cfg := Config{Seed: 42}
	if got, want := canonicalBytes(t, mustRunTest(t, c, cfg)), canonicalBytes(t, mustRunTest(t, builtin, cfg)); got != want {
		t.Fatal("run over the testdata circuit diverged from the embedded benchmark")
	}
	if _, err := ReadBench("bad", strings.NewReader("C = FROB(A)\n")); err == nil {
		t.Fatal("malformed netlist accepted")
	}
	if _, err := ReadBench("empty", strings.NewReader("# nothing\n")); err == nil {
		t.Fatal("empty netlist accepted")
	}
}

// TestContentHashNormalizesSyntax: comments, whitespace and line order
// wash out of the content hash; a different structure or name changes
// it.
func TestContentHashNormalizesSyntax(t *testing.T) {
	a, err := ParseBench("h", "INPUT(A)\nINPUT(B)\nOUTPUT(C)\nC = AND(A, B)\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBench("h", "# a comment\nINPUT(A)\n\nINPUT(B)\nOUTPUT(C)\n  C = and( A , B )\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() != b.ContentHash() {
		t.Fatalf("syntactic variation changed the hash:\n%s\n%s", a.ContentHash(), b.ContentHash())
	}
	or, err := ParseBench("h", "INPUT(A)\nINPUT(B)\nOUTPUT(C)\nC = OR(A, B)\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() == or.ContentHash() {
		t.Fatal("different structure, same hash")
	}
	named, err := ParseBench("other", "INPUT(A)\nINPUT(B)\nOUTPUT(C)\nC = AND(A, B)\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() == named.ContentHash() {
		t.Fatal("different name, same hash (results embed the name, so hashes must too)")
	}
	if len(a.ContentHash()) != 64 {
		t.Fatalf("hash %q is not hex SHA-256", a.ContentHash())
	}
	// The canonical text round-trips.
	rt, err := ParseBench("h", a.Bench())
	if err != nil {
		t.Fatal(err)
	}
	if rt.ContentHash() != a.ContentHash() {
		t.Fatal("canonical Bench text does not round-trip to the same hash")
	}
}

// TestTopologySharedAcrossSessions pins the levelize-once contract: any
// number of sessions over one Circuit (same cone policy) build exactly
// one topology, and the results stay bit-identical to a fresh circuit's.
func TestTopologySharedAcrossSessions(t *testing.T) {
	c, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	for i := 0; i < 3; i++ {
		results = append(results, mustRunTest(t, c, Config{}))
	}
	c.mu.Lock()
	builds := c.topoBuilds
	c.mu.Unlock()
	if builds != 1 {
		t.Fatalf("3 sessions built %d topologies, want 1", builds)
	}
	fresh, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalBytes(t, mustRunTest(t, fresh, Config{}))
	for i, r := range results {
		if got := canonicalBytes(t, r); got != want {
			t.Fatalf("session %d over the shared topology diverged from a fresh circuit", i)
		}
	}
	// A different cone policy gets its own topology; the same policy is
	// still shared.
	if _, err := New(c, Config{ConeSets: ConeSetsCompressed}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(c, Config{ConeSets: ConeSetsCompressed}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	builds = c.topoBuilds
	c.mu.Unlock()
	if builds != 2 {
		t.Fatalf("auto + compressed policies built %d topologies, want 2", builds)
	}
}

// TestConfigCanonical: aliases and zero defaults normalize, invalid
// configs error, and canonicalization is idempotent.
func TestConfigCanonical(t *testing.T) {
	canon, err := Config{}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Algebra: AlgebraRobust, Order: OrderNatural,
		LocalBacktracks: 100, SeqBacktracks: 100, MaxFrames: 32,
		ConeSets: ConeSetsAuto,
	}
	if canon != want {
		t.Fatalf("Canonical(zero) = %+v, want %+v", canon, want)
	}
	again, err := canon.Canonical()
	if err != nil || again != canon {
		t.Fatalf("canonicalization not idempotent: %+v vs %+v (%v)", again, canon, err)
	}
	alias, err := Config{Algebra: "non-robust"}.Canonical()
	if err != nil || alias.Algebra != AlgebraNonRobust {
		t.Fatalf("alias not resolved: %+v (%v)", alias, err)
	}
	if _, err := (Config{Algebra: "bogus"}).Canonical(); err == nil {
		t.Fatal("invalid algebra canonicalized")
	}
	if _, err := (Config{MaxTargets: -1}).CacheKey(); err == nil {
		t.Fatal("invalid config produced a cache key")
	}
}

// TestConfigCacheKey: configurations that provably produce identical
// Results share a key; result-affecting fields split it.
func TestConfigCacheKey(t *testing.T) {
	key := func(c Config) string {
		t.Helper()
		k, err := c.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	// The zero config's key is pinned to its literal bytes: checkpoint
	// config_keys, shard merge keys and result-cache entries written by
	// earlier builds must keep matching.
	base := key(Config{})
	const want = `{"algebra":"robust","order":"natural","local_backtracks":100,"seq_backtracks":100,"max_frames":32}`
	if base != want {
		t.Fatalf("Config{}.CacheKey() = %s, want %s", base, want)
	}
	// Defaults spelled out, the cone-set knob and the private reference
	// switch collapse onto the zero config's key.
	same := []Config{
		{Algebra: AlgebraRobust, Order: OrderNatural},
		{LocalBacktracks: 100, SeqBacktracks: 100, MaxFrames: 32},
		{reference: true},
		{ConeSets: ConeSetsCompressed},
	}
	for _, c := range same {
		if key(c) != base {
			t.Errorf("%+v got its own key; Results are provably identical", c)
		}
	}
	diff := []Config{
		{Algebra: AlgebraNonRobust},
		{Order: OrderADI},
		{Seed: 7},
		{Workers: 4}, // echoed into Result JSON
		{LocalBacktracks: 50},
		{MaxTargets: 10},
		{Compact: true},
		{StrictInit: true},
	}
	seen := map[string]string{base: "zero config"}
	for _, c := range diff {
		k := key(c)
		if prev, dup := seen[k]; dup {
			t.Errorf("%+v shares a key with %s", c, prev)
		}
		seen[k] = "some variant"
	}
}

// TestEventsLossyNeverWedges pins the abandoned-consumer fix: a consumer
// that stops draining an EventsLossy channel cannot block the merge
// loop. The run completes, evictions are counted and handed to the drop
// callback in commit order, and the result matches an unobserved run.
func TestEventsLossyNeverWedges(t *testing.T) {
	c, err := Benchmark("s298")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var droppedEvents []Event
	events := ses.EventsLossy(4, func(ev Event) { droppedEvents = append(droppedEvents, ev) })
	// Read exactly one event, then abandon the channel entirely.
	first := make(chan Event, 1)
	go func() { first <- <-events }()

	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = ses.Run(context.Background())
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("run wedged behind an abandoned lossy consumer")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Pending != 0 {
		t.Fatalf("lossy consumer truncated the run: %d pending", res.Pending)
	}
	if ses.DroppedEvents() == 0 || int64(len(droppedEvents)) != ses.DroppedEvents() {
		t.Fatalf("dropped counter %d, callback saw %d (want equal, nonzero)",
			ses.DroppedEvents(), len(droppedEvents))
	}
	<-first // the one delivered event
	want := mustRunTest(t, c, Config{})
	if canonicalBytes(t, res) != canonicalBytes(t, want) {
		t.Fatal("lossy observation changed the result")
	}
}

// TestEventsAbandonedConsumerUnwedgedByCancel documents the lossless
// Events contract: an abandoned consumer wedges the merge loop only
// until the Run context is cancelled, after which Run returns the usual
// coherent partial result.
func TestEventsAbandonedConsumerUnwedgedByCancel(t *testing.T) {
	c, err := Benchmark("s298")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ses.Events() // requested and then never drained
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = ses.Run(ctx)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("cancellation did not unwedge the abandoned consumer")
	}
	if runErr != context.Canceled || res == nil || res.Err != context.Canceled {
		t.Fatalf("Run = (%v, %v), want partial result with context.Canceled", res, runErr)
	}
	coherent(t, res)
}
