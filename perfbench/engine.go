package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"fogbuster/internal/bench"
	"fogbuster/internal/netlist"
	"fogbuster/pkg/atpg"
)

// largeTargets is the MaxTargets budget of large-budgeted: eight targets
// keep one s15850-class run near two seconds on two cores while every
// decision still re-sweeps the whole 15,850-line circuit.
const largeTargets = 4

// job is one ATPG run the benchmark submits: a generated circuit and the
// public configuration it runs under.
type job struct {
	profile string
	cfg     atpg.Config
}

// engineJobs lists the jobs of one pass of an in-process workload. Every
// job runs the public default atpg.Config, Seed included, on the shipped
// profile circuits, except where the workload says otherwise. The
// workload seed does not reach the engine: one Table 3 row's work moves
// by a fifth with Config.Seed, which would swamp every bound (see
// README.md).
func engineJobs(workload string, workers int) []job {
	cfg := atpg.Config{Workers: workers}
	switch workload {
	case "table3-mix":
		return []job{{"s298", cfg}, {"s420", cfg}, {"s1196", cfg}}
	case "large-budgeted":
		cfg.MaxTargets = largeTargets
		return []job{{"s15850", cfg}}
	case "compact-adi":
		cfg.Order = atpg.OrderADI
		cfg.Compact = true
		return []job{{"s641", cfg}}
	}
	return nil
}

// prepared is a job whose circuit has been generated and handed to the
// program as netlist text.
type prepared struct {
	job
	net  *netlist.Circuit // the generated netlist (the replay's input)
	circ *atpg.Circuit    // the same circuit as pkg/atpg parsed it
}

// prepare generates the job's circuit, passes it to pkg/atpg as bench
// text and builds a session once, which memoizes the topology on the
// circuit: the set-up a user pays before the first Run.
func prepare(j job) (prepared, error) {
	p := bench.ProfileByName(j.profile)
	if p == nil {
		return prepared{}, fmt.Errorf("unknown profile %s", j.profile)
	}
	nc, err := bench.Synthesize(*p)
	if err != nil {
		return prepared{}, err
	}
	circ, err := atpg.ParseBench(p.Name, nc.Bench())
	if err != nil {
		return prepared{}, err
	}
	if _, err := atpg.New(circ, j.cfg); err != nil {
		return prepared{}, err
	}
	return prepared{job: j, net: nc, circ: circ}, nil
}

// prepareAll times repeated set-ups (at least five, then more for up to
// a second, at most fifty) and keeps the last one.
func prepareAll(jobs []job) ([]prepared, []float64, error) {
	var setup []float64
	var preps []prepared
	start := time.Now()
	for len(setup) < 5 || (len(setup) < 50 && time.Since(start) < time.Second) {
		t := time.Now()
		preps = preps[:0]
		for _, j := range jobs {
			pr, err := prepare(j)
			if err != nil {
				return nil, nil, err
			}
			preps = append(preps, pr)
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	return preps, setup, nil
}

// outcome is one finished job.
type outcome struct {
	res    *atpg.Result
	doc    []byte // canonical document as the service stores it (runtime zeroed)
	encode time.Duration
	wall   time.Duration // session construction through the encoded document
}

// runJob runs one session to its canonical result document.
func runJob(ctx context.Context, pr prepared, cfg atpg.Config, onEvent func(atpg.Event)) (outcome, error) {
	start := time.Now()
	s, err := atpg.New(pr.circ, cfg)
	if err != nil {
		return outcome{}, err
	}
	if onEvent != nil {
		s.OnEvent(onEvent)
	}
	res, err := s.Run(ctx)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", pr.profile, err)
	}
	enc := time.Now()
	r := *res
	r.Runtime = 0
	var doc bytes.Buffer
	if err := atpg.EncodeJSON(&doc, &r); err != nil {
		return outcome{}, err
	}
	return outcome{res: res, doc: doc.Bytes(), encode: time.Since(enc), wall: time.Since(start)}, nil
}

// digest fingerprints the canonical document with the Workers echo
// cleared, the one config field allowed to differ between worker counts.
// It runs outside every timed region.
func (o outcome) digest() string {
	r := *o.res
	r.Runtime = 0
	r.Workers = 0
	var norm bytes.Buffer
	if err := atpg.EncodeJSON(&norm, &r); err != nil {
		return "unencodable: " + err.Error()
	}
	return digestBytes(norm.Bytes())
}

// digestBytes is a short hex fingerprint of a document.
func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// checkResult is the per-result correctness check.
func checkResult(name string, res *atpg.Result) error {
	if res.ValidationFailures != 0 {
		return fmt.Errorf("%s: %d generated sequences failed independent validation", name, res.ValidationFailures)
	}
	if got := res.Tested + res.Untestable + res.Aborted + res.Pending; got != len(res.Faults) {
		return fmt.Errorf("%s: tested+untestable+aborted+pending = %d, faults = %d", name, got, len(res.Faults))
	}
	if res.Classified() == 0 {
		return fmt.Errorf("%s: nothing classified", name)
	}
	return nil
}

// tally adds a checked result to a pass.
func (ps *passStats) tally(res *atpg.Result) {
	ps.classified += res.Classified()
	ps.tested += res.Tested
	ps.resolved += res.Tested + res.Untestable
	ps.patterns += res.Patterns
	ps.jobs++
}

// runEngine is the untraced run of an in-process workload.
func runEngine(r *report, name string, seed int64, seconds float64, workers int) error {
	jobs := engineJobs(name, workers)
	preps, setup, err := prepareAll(jobs)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var first []outcome
	passes, err := measureFor(seconds, 1, func() (passStats, error) {
		var ps passStats
		m := startMeter()
		outs := make([]outcome, len(preps))
		for i, pr := range preps {
			r.attempted++
			o, err := runJob(ctx, pr, pr.cfg, nil)
			if err != nil {
				return ps, err
			}
			outs[i] = o
			ps.jobMS = append(ps.jobMS, ms(o.wall))
		}
		m.stop(&ps)
		for i, o := range outs {
			if err := checkResult(preps[i].profile, o.res); err != nil {
				r.fail("%v", err)
			}
			if first != nil && o.digest() != first[i].digest() {
				r.fail("%s: canonical digest %s differs from the first repetition's %s", preps[i].profile, o.digest(), first[i].digest())
			}
			ps.tally(o.res)
		}
		if first == nil {
			first = outs
		}
		return ps, nil
	})
	if err != nil {
		return err
	}
	for i, o := range first {
		res := o.res
		r.notef("job %-7s faults=%d tested=%d untestable=%d aborted=%d pending=%d patterns=%d digest=%s",
			preps[i].profile, len(res.Faults), res.Tested, res.Untestable, res.Aborted, res.Pending, res.Patterns, o.digest())
	}

	// Worker-count invariance: one job of the pass (rotating with the
	// seed) again on a single worker must give the same document.
	k := int(uint64(seed) % uint64(len(preps)))
	one := preps[k].cfg
	one.Workers = 1
	r.attempted++
	o, err := runJob(ctx, preps[k], one, nil)
	if err != nil {
		return err
	}
	one1, full := o.digest(), first[k].digest()
	if one1 != full {
		r.fail("%s: 1-worker digest %s differs from the %d-worker digest %s", preps[k].profile, one1, workers, full)
	}
	r.notef("check: %s digest at 1 worker matches %d workers: %v", preps[k].profile, workers, one1 == full)
	r.endToEnd(setup, passes)
	return nil
}
