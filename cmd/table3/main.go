// Table3 regenerates the paper's Table 3: for every benchmark circuit the
// number of tested, untestable and aborted gate delay faults, the pattern
// count and the generation time, using the paper's backtrack limits
// (100 local + 100 sequential). It consumes the engine exclusively
// through the public fogbuster/pkg/atpg API.
//
// All circuits except s27 are profile-calibrated synthetic reconstructions
// (see internal/bench); absolute numbers are therefore comparable in shape,
// not value. The paper's row is printed alongside each measured row.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"fogbuster/pkg/atpg"
)

// config is the parsed command line, split from main so the tests can
// pin that the flags — the seed in particular — reach the engine.
type config struct {
	nonRobust bool
	strict    bool
	only      string
	noSim     bool
	workers   int
	compact   bool
	seed      int64
	jsonOut   string
	order     string
}

// errUsage marks a command-line error whose message was already printed.
var errUsage = errors.New("usage error")

// parseArgs parses the command line into a config, reporting errors on
// stderr.
func parseArgs(argv []string, stderr io.Writer) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("table3", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&cfg.nonRobust, "nonrobust", false, "use the non-robust fault model (the paper's proposed relaxation)")
	fs.BoolVar(&cfg.strict, "strict", false, "demand true synchronizing sequences (no assumed power-up state)")
	fs.StringVar(&cfg.only, "circuit", "", "run a single circuit by name (e.g. s27)")
	fs.BoolVar(&cfg.noSim, "nofaultsim", false, "disable fault simulation credit")
	fs.IntVar(&cfg.workers, "workers", 0, "ATPG worker count (0 = all CPUs, <0 = single worker); results are identical at any count")
	fs.Int64Var(&cfg.seed, "seed", 0, "run seed: drives the random X-fill, the ADI ordering campaign and the splice fills (one seed, one table, at any worker count)")
	fs.BoolVar(&cfg.compact, "compact", false, "compact every test set and report vectors before/after")
	fs.StringVar(&cfg.jsonOut, "json", "", "write every run's canonical atpg.Result as one JSON array to this file (- for stdout)")
	fs.StringVar(&cfg.order, "order", "natural", "fault-targeting order: natural, topo, scoap or adi")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	if err := cfg.engineConfig().Validate(); err != nil {
		fmt.Fprintf(stderr, "table3: %v\n", err)
		return nil, errUsage
	}
	return cfg, nil
}

// algebra resolves the fault model flag.
func (cfg *config) algebra() string {
	if cfg.nonRobust {
		return atpg.AlgebraNonRobust
	}
	return atpg.AlgebraRobust
}

// engineConfig translates the command line into the public engine
// configuration (compaction included — the session applies it).
func (cfg *config) engineConfig() atpg.Config {
	return atpg.Config{
		Algebra:         cfg.algebra(),
		Order:           cfg.order,
		StrictInit:      cfg.strict,
		DisableFaultSim: cfg.noSim,
		Seed:            cfg.seed,
		Workers:         cfg.workers,
		Compact:         cfg.compact,
	}
}

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		os.Exit(2)
	}
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

// run is the testable body of the command.
func run(cfg *config, stdout, stderr io.Writer) int {
	algName, err := atpg.AlgebraName(cfg.algebra())
	if err != nil {
		fmt.Fprintf(stderr, "table3: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "Gate delay fault test generation for non-scan circuits — Table 3 (%s model, %s order", algName, cfg.engineConfig().Order)
	if cfg.strict {
		fmt.Fprintf(stdout, ", strict initialization")
	}
	fmt.Fprintln(stdout, ")")
	fmt.Fprintf(stdout, "%-8s | %7s %7s %7s %7s %8s | %s\n",
		"circuit", "tested", "untstbl", "aborted", "#pat", "time", "paper row (tested/untstbl/aborted/#pat/time)")

	var results []*atpg.Result
	matched := false
	for _, b := range atpg.Benchmarks() {
		if cfg.only != "" && b.Name != cfg.only {
			continue
		}
		matched = true
		c, err := atpg.Benchmark(b.Name)
		if err != nil {
			fmt.Fprintf(stderr, "table3: %v\n", err)
			return 1
		}
		ses, err := atpg.New(c, cfg.engineConfig())
		if err != nil {
			fmt.Fprintf(stderr, "table3: %v\n", err)
			return 1
		}
		res, err := ses.Run(context.Background())
		if err != nil {
			fmt.Fprintf(stderr, "table3: %s: %v\n", b.Name, err)
			return 1
		}
		results = append(results, res)
		note := ""
		if !b.Exact {
			note = " *"
		}
		if st := res.Compaction; st != nil {
			note += fmt.Sprintf(" | vectors %d -> %d (%d of %d sequences dropped, %d spliced frames)",
				st.PatternsBefore, st.PatternsAfter, st.Dropped, st.Sequences, st.SplicedFrames)
		}
		if res.ValidationFailures > 0 {
			note += fmt.Sprintf(" (%d VALIDATION FAILURES)", res.ValidationFailures)
		}
		fmt.Fprintf(stdout, "%-8s | %7d %7d %7d %7d %7.2fs | %d / %d / %d / %d / %.0fs%s\n",
			b.Name, res.Tested, res.Untestable, res.Aborted, res.Patterns, res.Runtime.Seconds(),
			b.Paper.Tested, b.Paper.Untestable, b.Paper.Aborted, b.Paper.Patterns, b.Paper.Seconds, note)
	}
	if !matched {
		fmt.Fprintf(stderr, "table3: no benchmark named %q\n", cfg.only)
		return 1
	}
	fmt.Fprintln(stdout, "* synthetic reconstruction calibrated to the published size profile and the paper's fault totals")

	if cfg.jsonOut != "" {
		if err := writeJSON(cfg.jsonOut, stdout, results); err != nil {
			fmt.Fprintf(stderr, "table3: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeJSON emits every run's Result as one canonical JSON array.
func writeJSON(path string, stdout io.Writer, results []*atpg.Result) error {
	emit := func(w io.Writer) error {
		return atpg.EncodeJSON(w, results)
	}
	if path == "-" {
		return emit(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
