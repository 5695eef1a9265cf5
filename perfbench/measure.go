package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// report collects everything one invocation prints: the metrics the
// final line carries (vals), their spread (stats), the notes
// and the failed checks.
type report struct {
	vals      map[string]metricOut
	stats     map[string]summary
	notes     []string
	attempted int
	failures  []string
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{vals: map[string]metricOut{}, stats: map[string]summary{}}
}

// put records a sampled metric: its median is the value, the spread is
// kept for the report.
func (r *report) put(name, unit string, samples []float64) {
	s := summarize(samples)
	r.vals[name] = metricOut{Value: s.Median, Unit: unit}
	r.stats[name] = s
}

// exact records a metric measured once (a count or a single reading).
func (r *report) exact(name, unit string, v float64) {
	r.put(name, unit, []float64{v})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check; any failure makes the run
// incorrect and the process exit non-zero.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// print writes the human-readable part of the report.
func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.vals))
	for name := range r.vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, s := r.vals[name], r.stats[name]
		fmt.Fprintf(w, "metric %-28s %14.6g %-6s median=%.6g p25=%.6g p75=%.6g n=%d\n",
			name, v.Value, v.Unit, s.Median, s.P25, s.P75, s.N)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED CHECK:", f)
	}
}

// passStats is one complete workload run: the unit run_s, cpu_s,
// alloc_mb, faults_per_s and jobs_per_s are sampled in.
type passStats struct {
	wall, cpu  time.Duration
	alloc      uint64
	classified int
	tested     int
	resolved   int // tested + untestable
	patterns   int
	jobs       int
	jobMS      []float64
}

// meter takes the process-wide readings a pass is charged with.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	heap0 uint64
}

func startMeter() meter {
	return meter{t0: time.Now(), cpu0: cpuTime(), heap0: heapAllocs()}
}

func (m meter) stop(ps *passStats) {
	ps.wall = time.Since(m.t0)
	ps.cpu = cpuTime() - m.cpu0
	ps.alloc = heapAllocs() - m.heap0
}

// measureFor repeats pass at least minPasses times, then until starting
// another would overrun the window, so a run measures for about seconds.
func measureFor(seconds float64, minPasses int, pass func() (passStats, error)) ([]passStats, error) {
	start := time.Now()
	var out []passStats
	var walls []float64
	for {
		ps, err := pass()
		if err != nil {
			return out, err
		}
		out = append(out, ps)
		walls = append(walls, ps.wall.Seconds())
		if len(out) >= minPasses && time.Since(start).Seconds()+summarize(walls).Median > seconds {
			return out, nil
		}
	}
}

// endToEnd derives the end-to-end metrics from untraced passes.
func (r *report) endToEnd(setup []float64, passes []passStats) {
	var run, cpu, alloc, fps, jps, jobMS []float64
	for _, p := range passes {
		run = append(run, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		alloc = append(alloc, float64(p.alloc)/1e6)
		fps = append(fps, float64(p.classified)/p.wall.Seconds())
		jps = append(jps, float64(p.jobs)/p.wall.Seconds())
		jobMS = append(jobMS, p.jobMS...)
	}
	r.put("setup_s", "s", setup)
	r.put("run_s", "s", run)
	r.put("cpu_s", "s", cpu)
	r.put("alloc_mb", "MB", alloc)
	r.put("faults_per_s", "1/s", fps)
	r.put("jobs_per_s", "1/s", jps)
	r.exact("peak_rss_mb", "MB", peakRSSMB())

	// The classification counts are deterministic per pass; medians over
	// passes equal every pass when the digest check holds.
	var cov, res, pat []float64
	for _, p := range passes {
		cov = append(cov, float64(p.tested)/float64(p.classified))
		res = append(res, float64(p.resolved)/float64(p.classified))
		pat = append(pat, float64(p.patterns))
	}
	r.put("coverage", "ratio", cov)
	r.put("resolved_frac", "ratio", res)
	r.put("patterns", "count", pat)

	q := summarize(jobMS)
	p90, ok := percentile(jobMS, 0.9)
	r.vals["job_ms_p50"] = metricOut{Value: q.Median, Unit: "ms"}
	r.vals["job_ms_p90"] = metricOut{Value: p90, Unit: "ms"}
	r.stats["job_ms_p50"] = q
	r.stats["job_ms_p90"] = summary{Median: p90, P25: q.P25, P75: q.P75, N: q.N}
	if !ok {
		r.notef("note: job_ms_p90 rests on %d job samples; fewer than ten lie beyond it, read it as the slowest jobs", len(jobMS))
	}
	attempted := max(r.attempted, 1)
	r.exact("job_ok_frac", "ratio", float64(attempted-min(len(r.failures), attempted))/float64(attempted))
}

// median of float samples (unsorted input).
func med(xs []float64) float64 { return summarize(xs).Median }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// allocSample is reused so that reading the counter around a measured
// call allocates nothing itself; only the main goroutine reads it.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of heap bytes allocated; reading it
// does not stop the world.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// environment describes where the figures were taken.
func environment(seed int64, workers int) string {
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d workers=%d go=%s cpu=%q seed=%d (wall-clock figures depend on host load; the README baseline is from a shared 2-core host)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(), cpuModel(), seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
