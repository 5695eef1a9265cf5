// Command perfbench is the repository benchmark. It runs one named
// workload through the public pkg/atpg API (or the in-process service),
// checks that the outputs are correct, and prints every metric declared
// in BENCHMARK.json with its unit; the last line of standard output is
// one JSON object with the correctness verdict and every metric value.
//
//	bash perfbench/run.sh --workload table3-mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the
// Figure 4 flow through the layer packages' exported entry points with
// spans around every call and prints the per-layer metrics. Run it from
// the root of the repository; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the final line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 0, "workload seed: shapes the uploaded netlist variants, the job the 1-worker check repeats and the traced replay's probe streams")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !sp.workload(*workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	workers := runtime.NumCPU()
	r := newReport()
	mode := "untraced"
	if *trace == 1 {
		mode = "traced"
	}
	r.notef("perfbench workload=%s seed=%d mode=%s seconds=%g", *workload, *seed, mode, *seconds)
	r.notef("%s", environment(*seed, workers))

	want := sp.EndToEnd
	switch {
	case *trace == 1:
		want = sp.PerLayer
		err = runTraced(r, *workload, *seed, workers, filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed)))
	case *workload == "service-mix":
		err = runService(r, *seed, *seconds, workers)
	default:
		err = runEngine(r, *workload, *seed, *seconds, workers)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := checkEmitted(want, r.vals); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r.print(stdout)
	out := result{
		Correct:   len(r.failures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    min(len(r.failures), max(r.attempted, 1)),
		Metrics:   r.vals,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness checks failed")
		return 1
	}
	return 0
}
