// Tdatpg runs the full non-scan gate delay fault ATPG flow on an ISCAS'89
// .bench netlist and reports the per-fault classification, optionally
// dumping the generated test sequences, streaming live progress, and
// writing the results in the canonical JSON or the legacy CSV form. It
// consumes the engine exclusively through the public fogbuster/pkg/atpg
// API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"fogbuster/pkg/atpg"
)

// config is the parsed command line. It exists separately from main so
// the tests can pin that every flag — the seed and the output selectors
// in particular — actually reaches the engine configuration.
type config struct {
	nonRobust bool
	strict    bool
	localBT   int
	seqBT     int
	dump      bool
	verbose   bool
	csvOut    string
	jsonOut   string
	progress  bool
	varBudget int
	workers   int
	compact   bool
	seed      int64
	coneSets  string
	maxTarg   int
	timeout   time.Duration
	cpuProf   string
	memProf   string
	order     string
	bench     string
}

// errUsage marks a command-line error whose message was already printed.
var errUsage = errors.New("usage error")

// parseArgs parses the command line into a config. Errors (including
// -h/-help) are reported on stderr; the caller only needs the exit code.
func parseArgs(argv []string, stderr io.Writer) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("tdatpg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&cfg.nonRobust, "nonrobust", false, "use the non-robust fault model")
	fs.BoolVar(&cfg.strict, "strict", false, "demand true synchronizing sequences")
	fs.IntVar(&cfg.localBT, "local-backtracks", 100, "TDgen backtrack limit per fault")
	fs.IntVar(&cfg.seqBT, "seq-backtracks", 100, "SEMILET backtrack limit per fault")
	fs.BoolVar(&cfg.dump, "dump", false, "print every generated test sequence")
	fs.BoolVar(&cfg.verbose, "v", false, "print the per-fault classification")
	fs.StringVar(&cfg.csvOut, "csv", "", "write the per-fault results and sequences to a CSV file")
	fs.StringVar(&cfg.jsonOut, "json", "", "write the canonical atpg.Result JSON to this file (- for stdout; exclusive with -csv)")
	fs.BoolVar(&cfg.progress, "progress", false, "render the event stream as a live done/total ticker on stderr")
	fs.IntVar(&cfg.varBudget, "variation", 0, "timing-refined PPO handoff with this variation budget (0 = pure robust)")
	fs.IntVar(&cfg.workers, "workers", 0, "ATPG worker count (0 = all CPUs, <0 = single worker); results are identical at any count")
	fs.Int64Var(&cfg.seed, "seed", 0, "run seed: drives the random X-fill, the ADI ordering campaign and the splice fills (one seed, one Result, at any worker count)")
	fs.BoolVar(&cfg.compact, "compact", false, "compact the test set (reverse-order drop + overlap merge) after generation")
	fs.StringVar(&cfg.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&cfg.memProf, "memprofile", "", "write a heap profile (taken after the run) to this file")
	fs.StringVar(&cfg.coneSets, "conesets", "auto", "cone-set representation: auto, dense or compressed (memory/speed trade; results are identical)")
	fs.IntVar(&cfg.maxTarg, "maxtargets", 0, "budget the run to the first N targeting positions (0 = the whole universe)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock deadline for the run (e.g. 30s, 5m; 0 = none); an expired run still writes the committed-prefix partial result and exits 3")
	fs.StringVar(&cfg.order, "order", "natural", "fault-targeting order: natural, topo, scoap or adi")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	if err := cfg.engineConfig().Validate(); err != nil {
		fmt.Fprintf(stderr, "tdatpg: %v\n", err)
		return nil, errUsage
	}
	if cfg.jsonOut != "" && cfg.csvOut != "" {
		fmt.Fprintln(stderr, "tdatpg: -json and -csv are exclusive")
		return nil, errUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tdatpg [flags] circuit.bench")
		fs.PrintDefaults()
		return nil, errUsage
	}
	cfg.bench = fs.Arg(0)
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
		LocalBacktracks: cfg.localBT,
		SeqBacktracks:   cfg.seqBT,
		StrictInit:      cfg.strict,
		VariationBudget: cfg.varBudget,
		Seed:            cfg.seed,
		Workers:         cfg.workers,
		Compact:         cfg.compact,
		ConeSets:        cfg.coneSets,
		MaxTargets:      cfg.maxTarg,
	}
}

// profiling starts CPU profiling if requested and returns a stop
// function that finishes both profiles; it must run before any exit.
func (cfg *config) profiling(stderr io.Writer) (func(), error) {
	var cpuFile *os.File
	if cfg.cpuProf != "" {
		f, err := os.Create(cfg.cpuProf)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if cfg.memProf != "" {
			f, err := os.Create(cfg.memProf)
			if err != nil {
				fmt.Fprintf(stderr, "tdatpg: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "tdatpg: %v\n", err)
			}
			f.Close()
		}
	}, nil
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
	fail := func(err error) int {
		fmt.Fprintf(stderr, "tdatpg: %v\n", err)
		return 1
	}

	c, err := atpg.LoadBench(cfg.bench)
	if err != nil {
		return fail(err)
	}
	ses, err := atpg.New(c, cfg.engineConfig())
	if err != nil {
		return fail(err)
	}

	stopProf, err := cfg.profiling(stderr)
	if err != nil {
		return fail(err)
	}

	// The -progress ticker consumes the streaming events on a side
	// goroutine; the channel closes when Run returns, so every later
	// return path must pass through Run (or the goroutine would leak).
	ticker := make(chan struct{})
	if cfg.progress {
		events := ses.Events()
		go func() {
			defer close(ticker)
			ticked := false
			for ev := range events {
				if ev.Kind == atpg.EventProgress {
					fmt.Fprintf(stderr, "\rtdatpg: %d/%d faults", ev.Done, ev.Total)
					ticked = true
				}
			}
			if ticked {
				fmt.Fprintln(stderr)
			}
		}()
	} else {
		close(ticker)
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	res, err := ses.Run(ctx)
	stopProf()
	<-ticker
	if err != nil && res == nil {
		return fail(err)
	}

	if cfg.csvOut != "" {
		if err := writeFile(cfg.csvOut, stdout, res.WriteCSV); err != nil {
			return fail(err)
		}
	}
	if cfg.jsonOut != "" {
		if err := writeFile(cfg.jsonOut, stdout, func(w io.Writer) error {
			return atpg.EncodeJSON(w, res)
		}); err != nil {
			return fail(err)
		}
	}

	fmt.Fprintln(stdout, c.Stats())
	fmt.Fprintf(stdout, "model=%s order=%s tested=%d (explicit %d) untestable=%d aborted=%d patterns=%d time=%v\n",
		res.Algebra, res.Order, res.Tested, res.Explicit, res.Untestable, res.Aborted, res.Patterns, res.Runtime)
	if st := res.Compaction; st != nil {
		fmt.Fprintf(stdout, "compaction: vectors %d -> %d, sequences %d -> %d (%d dropped, %d pairs spliced saving %d vectors)\n",
			st.PatternsBefore, st.PatternsAfter, st.Sequences, st.Kept, st.Dropped, st.Splices, st.SplicedFrames)
	}
	if res.ValidationFailures > 0 {
		fmt.Fprintf(stdout, "WARNING: %d sequences failed independent validation\n", res.ValidationFailures)
	}
	if cfg.verbose || cfg.dump {
		for _, r := range res.Faults {
			if !cfg.verbose && r.Seq == nil {
				continue
			}
			fmt.Fprintf(stdout, "%-24s %s\n", r.Fault, legacyLabel(r.Status))
			if cfg.dump && r.Seq != nil {
				printSeq(stdout, r.Seq)
			}
		}
	}
	if res.Err != nil {
		// The deadline (or an interrupt) truncated the run: everything
		// above reported the coherent committed prefix — bit-identical to
		// the same prefix of an unbounded run — and the distinct exit code
		// lets scripts tell "partial" from "failed".
		fmt.Fprintf(stderr, "tdatpg: run stopped early (%v): %d of %d faults classified, %d pending\n",
			res.Err, res.Classified(), len(res.Faults), res.Pending)
		return 3
	}
	return 0
}

// writeFile runs emit against the named file, or stdout for "-".
func writeFile(path string, stdout io.Writer, emit func(io.Writer) error) error {
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

// legacyLabel keeps the classic report spelling for credited faults.
func legacyLabel(s atpg.Status) string {
	if s == atpg.StatusTestedBySim {
		return "tested(sim)"
	}
	return string(s)
}

func printSeq(w io.Writer, t *atpg.Sequence) {
	for i, v := range t.Sync {
		fmt.Fprintf(w, "    sync[%d] %s (slow)\n", i, v)
	}
	fmt.Fprintf(w, "    V1      %s (slow)\n", t.V1)
	fmt.Fprintf(w, "    V2      %s (FAST)\n", t.V2)
	for i, v := range t.Prop {
		fmt.Fprintf(w, "    prop[%d] %s (slow)\n", i, v)
	}
	if t.ObservePO >= 0 {
		fmt.Fprintf(w, "    observe PO %d\n", t.ObservePO)
	}
	if t.Assumed != "" {
		fmt.Fprintf(w, "    assumed power-up state %s\n", t.Assumed)
	}
}
