package atpg

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestValidateRejectsBadConfigs pins the errors-over-panics contract:
// every malformed field is a construction error, from Validate and from
// New alike.
func TestValidateRejectsBadConfigs(t *testing.T) {
	c, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"unknown algebra":          {Algebra: "heroic"},
		"unknown order":            {Order: "bogus"},
		"negative local budget":    {LocalBacktracks: -1},
		"negative seq budget":      {SeqBacktracks: -7},
		"negative max frames":      {MaxFrames: -2},
		"negative variation":       {VariationBudget: -3},
		"misspelled builtin order": {Order: "SCOAP"},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %s", name)
		}
		if _, err := New(c, cfg); err == nil {
			t.Errorf("New accepted %s", name)
		}
	}
}

// TestValidateAcceptsCanonicalNames: every listed algebra and order
// validates, as do the zero value and the non-robust alias.
func TestValidateAcceptsCanonicalNames(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero Config invalid: %v", err)
	}
	for _, alg := range Algebras() {
		for _, ord := range Orders() {
			cfg := Config{Algebra: alg, Order: ord, Workers: -1}
			if err := cfg.Validate(); err != nil {
				t.Errorf("Validate(%s, %s): %v", alg, ord, err)
			}
		}
	}
	if err := (Config{Algebra: "non-robust"}).Validate(); err != nil {
		t.Fatalf("non-robust alias invalid: %v", err)
	}
}

// TestConfigJSONTags: a Config round-trips through its flat JSON form,
// so configurations can live in files and service requests.
func TestConfigJSONTags(t *testing.T) {
	in := Config{
		Algebra: AlgebraNonRobust, Order: OrderADI,
		LocalBacktracks: 7, SeqBacktracks: 9, MaxFrames: 11,
		DisableFaultSim: true, StrictInit: true, VariationBudget: 2,
		Seed: -42, Workers: 3, Compact: true,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"algebra"`, `"order"`, `"local_backtracks"`, `"seed"`, `"workers"`, `"compact"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("encoded Config missing %s: %s", key, data)
		}
	}
	var out Config
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("Config round trip changed the value:\n in %+v\nout %+v", in, out)
	}
}

// TestBenchmarkNames: the built-in set resolves by name, parameterized
// families parse their size, and unknown names are errors.
func TestBenchmarkNames(t *testing.T) {
	for _, b := range Benchmarks() {
		c, err := Benchmark(b.Name)
		if err != nil {
			t.Fatalf("Benchmark(%s): %v", b.Name, err)
		}
		if c.Name() != b.Name {
			t.Errorf("Benchmark(%s) named %q", b.Name, c.Name())
		}
	}
	for _, name := range []string{"c17", "rca4", "shift8"} {
		if _, err := Benchmark(name); err != nil {
			t.Errorf("Benchmark(%s): %v", name, err)
		}
	}
	for _, name := range []string{"s9999", "rca0", "rca999", "shiftX", ""} {
		if _, err := Benchmark(name); err == nil {
			t.Errorf("Benchmark(%s) accepted", name)
		}
	}
}

// TestParseBenchRejectsGarbage: malformed netlist text is an error (no
// panic), the satellite audit of the parse entry points the tools use.
func TestParseBenchRejectsGarbage(t *testing.T) {
	for name, src := range map[string]string{
		"undefined signal": "INPUT(A)\nOUTPUT(Z)\nZ = AND(A, NOPE)\n",
		"bad gate":         "INPUT(A)\nOUTPUT(Z)\nZ = FROB(A)\n",
		"empty":            "",
	} {
		if _, err := ParseBench(name, src); err == nil {
			t.Errorf("ParseBench accepted %s", name)
		}
	}
	if _, err := LoadBench("/nonexistent/x.bench"); err == nil {
		t.Error("LoadBench accepted a missing file")
	}
}

// TestSessionSingleUse: a second Run reports ErrAlreadyRun.
func TestSessionSingleUse(t *testing.T) {
	c, err := Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Run(t.Context()); err != ErrAlreadyRun {
		t.Fatalf("second Run = %v, want ErrAlreadyRun", err)
	}
}
