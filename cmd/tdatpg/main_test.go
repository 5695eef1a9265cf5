package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fogbuster/pkg/atpg"
)

// andBench is a minimal combinational netlist for end-to-end cmd tests.
const andBench = `# and2
INPUT(A)
INPUT(B)
OUTPUT(C)
C = AND(A, B)
`

// writeBench drops the test netlist into a temp dir.
func writeBench(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "and2.bench")
	if err := os.WriteFile(path, []byte(andBench), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSeedFlagReachesEngine pins the -seed satellite fix: the flag value
// must land in the public Config (the session derives the X-fill
// streams, the ADI ordering campaign and the splice fills from it).
func TestSeedFlagReachesEngine(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-seed", "12345", "-order", "adi", "-compact", "circuit.bench"}, &stderr)
	if err != nil {
		t.Fatalf("parseArgs: %v (stderr: %s)", err, stderr.String())
	}
	ec := cfg.engineConfig()
	if ec.Seed != 12345 {
		t.Fatalf("config Seed = %d, want 12345", ec.Seed)
	}
	if ec.Order != atpg.OrderADI {
		t.Fatalf("config Order = %q, want adi", ec.Order)
	}
	if !ec.Compact {
		t.Fatal("config Compact not set")
	}
	if cfg.bench != "circuit.bench" {
		t.Fatalf("bench arg = %q", cfg.bench)
	}
}

// TestProfileFlagsReachConfig pins that -compact and the profiling
// flags survive parsing.
func TestProfileFlagsReachConfig(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-compact", "-cpuprofile", "cpu.out", "-memprofile", "mem.out", "circuit.bench"}, &stderr)
	if err != nil {
		t.Fatalf("parseArgs: %v (stderr: %s)", err, stderr.String())
	}
	if !cfg.engineConfig().Compact {
		t.Fatal("config Compact not set")
	}
	if cfg.cpuProf != "cpu.out" || cfg.memProf != "mem.out" {
		t.Fatalf("profile paths lost: cpu=%q mem=%q", cfg.cpuProf, cfg.memProf)
	}
}

// TestDefaultSeedIsZero: without -seed the engine keeps the fixed
// default seed, preserving pre-flag reproducibility.
func TestDefaultSeedIsZero(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"circuit.bench"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.engineConfig().Seed; got != 0 {
		t.Fatalf("default Seed = %d, want 0", got)
	}
}

// TestParseArgsRejectsBadUsage: unknown orders, missing netlist
// arguments and conflicting output selectors are reported, never
// silently defaulted.
func TestParseArgsRejectsBadUsage(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parseArgs([]string{"-order", "bogus", "circuit.bench"}, &stderr); err == nil {
		t.Fatal("unknown order accepted")
	}
	if !strings.Contains(stderr.String(), "bogus") {
		t.Fatalf("order error not reported: %q", stderr.String())
	}
	stderr.Reset()
	if _, err := parseArgs([]string{"-seed", "1"}, &stderr); err == nil {
		t.Fatal("missing netlist argument accepted")
	}
	if !strings.Contains(stderr.String(), "usage") {
		t.Fatalf("usage not printed: %q", stderr.String())
	}
	stderr.Reset()
	if _, err := parseArgs([]string{"-json", "a.json", "-csv", "a.csv", "circuit.bench"}, &stderr); err == nil {
		t.Fatal("-json with -csv accepted")
	}
	if !strings.Contains(stderr.String(), "exclusive") {
		t.Fatalf("exclusivity not reported: %q", stderr.String())
	}
}

// TestJSONFlagReachesEncoder pins the -json satellite end to end: the
// flag must route the run's Result into the canonical JSON encoder, and
// the emitted document must decode back into an atpg.Result that
// classifies the complete fault universe.
func TestJSONFlagReachesEncoder(t *testing.T) {
	bench := writeBench(t)
	out := filepath.Join(t.TempDir(), "result.json")
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-json", out, bench}, &stderr)
	if err != nil {
		t.Fatalf("parseArgs: %v (stderr: %s)", err, stderr.String())
	}
	var stdout bytes.Buffer
	if code := run(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res atpg.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("emitted JSON does not decode: %v", err)
	}
	if len(res.Faults) == 0 || res.Classified() != len(res.Faults) {
		t.Fatalf("JSON result incoherent: %d faults, %d classified", len(res.Faults), res.Classified())
	}
	if res.Pending != 0 || res.Err != nil {
		t.Fatalf("uncancelled run must be complete: pending=%d err=%v", res.Pending, res.Err)
	}
}

// TestJSONToStdout: "-json -" streams the document to stdout, in front
// of the human summary.
func TestJSONToStdout(t *testing.T) {
	bench := writeBench(t)
	var stdout, stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-json", "-", bench}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if code := run(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout.Bytes()))
	var res atpg.Result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("stdout does not start with the JSON document: %v", err)
	}
}

// TestProgressTicker: -progress renders a done/total ticker on stderr.
func TestProgressTicker(t *testing.T) {
	bench := writeBench(t)
	var stdout, stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-progress", bench}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if code := run(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "faults") || !strings.Contains(stderr.String(), "/") {
		t.Fatalf("no ticker on stderr: %q", stderr.String())
	}
}

// TestTimeoutFlagYieldsPartialResult pins the -timeout satellite: an
// already-expired deadline still writes the JSON document — a coherent
// committed-prefix partial carrying the deadline sentinel — and the run
// exits with the distinct "partial" code 3.
func TestTimeoutFlagYieldsPartialResult(t *testing.T) {
	bench := writeBench(t)
	out := filepath.Join(t.TempDir(), "partial.json")
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-timeout", "1ns", "-json", out, bench}, &stderr)
	if err != nil {
		t.Fatalf("parseArgs: %v (stderr: %s)", err, stderr.String())
	}
	var stdout bytes.Buffer
	if code := run(cfg, &stdout, &stderr); code != 3 {
		t.Fatalf("run = %d, want 3 (partial); stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res atpg.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("partial JSON does not decode: %v", err)
	}
	if res.Err != context.DeadlineExceeded {
		t.Fatalf("partial result Err = %v, want context.DeadlineExceeded", res.Err)
	}
	if res.Classified()+res.Pending != len(res.Faults) {
		t.Fatalf("partial incoherent: %d classified + %d pending != %d faults",
			res.Classified(), res.Pending, len(res.Faults))
	}
	if !strings.Contains(stderr.String(), "stopped early") {
		t.Fatalf("no partial note on stderr: %q", stderr.String())
	}
}

// TestTimeoutFlagDefaultsOff: without -timeout the run is unbounded and
// completes with exit 0.
func TestTimeoutFlagDefaultsOff(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"circuit.bench"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.timeout != 0 {
		t.Fatalf("default timeout = %v, want 0", cfg.timeout)
	}
}
