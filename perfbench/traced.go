package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"fogbuster/internal/bench"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
	"fogbuster/internal/testability"
	"fogbuster/pkg/atpg"
)

// runTraced is the per-layer run of a workload: timed set-up stages,
// the engine with and without an OnEvent observer, the single-threaded
// Figure 4 replay with a span around every layer call, and for
// service-mix one traced round of the script.
func runTraced(r *report, name string, seed int64, workers int, spanPath string) error {
	rec := newRecorder()
	lm := &layers{}
	jobs := engineJobs(name, workers)
	if name == "service-mix" {
		var err error
		if jobs, err = traceService(r, rec, seed); err != nil {
			return err
		}
	} else {
		for _, m := range []string{"service.submit_ms", "service.result_ms"} {
			r.exact(m, "ms", 0)
		}
		for _, m := range []string{"service.circuit_cache_hits", "service.circuit_parses", "service.result_cache_hits",
			"service.result_cache_misses", "service.sse_events", "service.sse_dropped"} {
			r.exact(m, "count", 0)
		}
	}

	// Set-up stages, each timed on its own.
	var synth, parse, topoT, scoap, newT time.Duration
	type traced struct {
		prepared
		topo *sim.Topology
		meas *testability.Measures
	}
	var preps []traced
	for _, j := range jobs {
		p := bench.ProfileByName(j.profile)
		if p == nil {
			return fmt.Errorf("unknown profile %s", j.profile)
		}
		t := time.Now()
		nc, err := bench.Synthesize(*p)
		if err != nil {
			return err
		}
		synth += time.Since(t)
		text := nc.Bench()
		t = time.Now()
		pc, err := netlist.Parse(p.Name, text)
		if err != nil {
			return err
		}
		parse += time.Since(t)
		t = time.Now()
		topo := sim.NewTopology(pc)
		topoT += time.Since(t)
		policy, err := sim.ParseConePolicy(j.cfg.ConeSets)
		if err != nil {
			return err
		}
		topo.SetConePolicy(policy)
		t = time.Now()
		meas := testability.Compute(pc)
		scoap += time.Since(t)
		circ, err := atpg.ParseBench(p.Name, text)
		if err != nil {
			return err
		}
		t = time.Now()
		if _, err := atpg.New(circ, j.cfg); err != nil {
			return err
		}
		newT += time.Since(t)
		preps = append(preps, traced{prepared{job: j, net: pc, circ: circ}, topo, meas})
	}
	r.exact("bench.synth_ms", "ms", ms(synth))
	r.exact("netlist.parse_ms", "ms", ms(parse))
	r.exact("sim.topology_ms", "ms", ms(topoT))
	r.exact("testability.scoap_ms", "ms", ms(scoap))
	r.exact("atpg.new_ms", "ms", ms(newT))

	// The engine untraced and with an OnEvent observer, alternated twice;
	// the observer yields the core numbers and their ratio the tracing
	// overhead.
	ctx := context.Background()
	var plain, observed, encode, resultKB []float64
	var gapMax time.Duration
	var steals, skips int
	var tested, untestable, aborted int
	var ref []string
	for rep := 0; rep < 2; rep++ {
		for _, withEvents := range []bool{false, true} {
			var pass, enc time.Duration
			kb := 0.0
			var digests []string
			for _, pr := range preps {
				last := time.Now()
				var onEvent func(atpg.Event)
				if withEvents {
					onEvent = func(atpg.Event) {
						now := time.Now()
						if d := now.Sub(last); d > gapMax {
							gapMax = d
						}
						last = now
					}
				}
				r.attempted++
				o, err := runJob(ctx, pr.prepared, pr.cfg, onEvent)
				if err != nil {
					return err
				}
				if err := checkResult(pr.profile, o.res); err != nil {
					r.fail("%v", err)
				}
				pass += o.wall
				enc += o.encode
				kb += float64(len(o.doc)) / 1e3
				digests = append(digests, o.digest())
				if rep == 0 && withEvents {
					steals += o.res.Steals
					skips += o.res.BroadcastSkips
					tested += o.res.Tested
					untestable += o.res.Untestable
					aborted += o.res.Aborted
				}
			}
			if ref == nil {
				ref = digests
			} else if !slices.Equal(ref, digests) {
				r.fail("engine digests %v differ from the first pass's %v", digests, ref)
			}
			if withEvents {
				observed = append(observed, pass.Seconds())
			} else {
				plain = append(plain, pass.Seconds())
			}
			encode = append(encode, ms(enc))
			resultKB = append(resultKB, kb)
		}
	}
	r.put("core.run_s", "s", observed)
	r.exact("core.commit_gap_ms_max", "ms", ms(gapMax))
	r.exact("core.steals", "count", float64(steals))
	r.exact("core.broadcast_skips", "count", float64(skips))
	r.put("atpg.encode_ms", "ms", encode)
	r.put("atpg.result_kb", "KB", resultKB)
	r.exact("trace.overhead_frac", "ratio", med(observed)/med(plain))
	r.exact("engine.tested", "count", float64(tested))
	r.exact("engine.untestable", "count", float64(untestable))
	r.exact("engine.aborted", "count", float64(aborted))

	// The Figure 4 replay.
	var coneBytes int64
	for _, pr := range preps {
		rp := newReplayer(rec, lm, pr.net, pr.topo, pr.meas, seed)
		rp.run(pr.cfg)
		_, actual := pr.topo.ConeFootprint()
		coneBytes += actual
	}
	r.exact("sim.cone_kb", "KB", float64(coneBytes)/1e3)
	lm.emit(r, rec)
	r.notef("fidelity: engine tested=%d untestable=%d aborted=%d | replay tested=%d untestable=%d aborted=%d",
		tested, untestable, aborted, lm.tested, lm.untestable, lm.aborted)
	if err := rec.write(spanPath); err != nil {
		return err
	}
	r.notef("spans: %d written to %s", len(rec.spans), spanPath)
	return nil
}

// emit turns the replay's counts and spans into per-layer metrics.
func (lm *layers) emit(r *report, rec *recorder) {
	self := selfByName(rec.spans)
	sec := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return d.Seconds()
	}
	count := func(name string, v int) { r.exact(name, "count", float64(v)) }
	r.exact("order.permutation_ms", "ms", ms(lm.permutation))

	count("tdgen.next_calls", lm.tdgenNext)
	r.exact("tdgen.busy_s", "s", sec("tdgen.new", "tdgen.next"))
	count("tdgen.backtracks", lm.tdgenBacktracks)
	count("tdgen.solutions", lm.tdgenSolutions)
	count("tdgen.untestable", lm.tdgenUntestable)
	count("tdgen.aborted", lm.tdgenAborted)
	r.exact("tdgen.alloc_mb", "MB", float64(lm.tdgenAlloc)/1e6)
	p50, _ := percentile(lm.faultMS, 0.5)
	p99, ok := percentile(lm.faultMS, 0.99)
	r.exact("tdgen.fault_ms_p50", "ms", p50)
	r.exact("tdgen.fault_ms_p99", "ms", p99)
	if !ok {
		r.notef("note: tdgen.fault_ms_p99 rests on %d faults; fewer than ten lie beyond it", len(lm.faultMS))
	}

	count("semilet.propagate_calls", lm.propCalls)
	r.exact("semilet.propagate_busy_s", "s", sec("semilet.propagate"))
	count("semilet.propagate_fail", lm.propFail)
	count("semilet.propagate_aborted", lm.propAborted)
	count("semilet.sync_calls", lm.syncCalls)
	r.exact("semilet.sync_busy_s", "s", sec("semilet.sync"))
	count("semilet.sync_fail", lm.syncFail)
	count("semilet.sync_aborted", lm.syncAborted)
	count("semilet.budget_used", lm.budgetUsed)

	count("tdsim.validate_calls", lm.validateCalls)
	r.exact("tdsim.validate_busy_s", "s", sec("tdsim.validate"))
	count("tdsim.lanes_confirmed", lm.lanesConfirmed)
	count("tdsim.rejects", lm.rejects)
	count("tdsim.detect_calls", lm.detectCalls)
	r.exact("tdsim.detect_busy_s", "s", sec("tdsim.detect"))
	count("tdsim.detected", lm.detected)

	r.exact("compact.apply_ms", "ms", lm.compactMS)
	count("compact.dropped", lm.dropped)
	count("compact.splices", lm.splices)
	count("compact.patterns_saved", lm.patternsSaved)

	r.exact("replay.self_s", "s", sec("fault"))
	count("replay.tested", lm.tested)
	count("replay.untestable", lm.untestable)
	count("replay.aborted", lm.aborted)
}

// traceService plays one round of the service-mix script with spans
// around every client call, records the service-layer metrics, and
// returns the jobs that reached the engine for the replay.
func traceService(r *report, rec *recorder, seed int64) ([]job, error) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	scripts, _, err := svcSetup(client, seed)
	if err != nil {
		return nil, err
	}
	rd, err := playRound(client, scripts)
	if err != nil {
		return nil, err
	}
	r.attempted += rd.count()
	checkRound(r, scripts, rd)
	var submit, result []float64
	events, dropped := 0, 0
	var jobs []job
	for c, script := range scripts {
		for pos, req := range script {
			j := rd.jobs[c][pos]
			submit = append(submit, ms(j.submit))
			result = append(result, ms(j.result))
			events += j.events
			dropped += j.dropped
			if req.kind == svcFresh {
				jobs = append(jobs, job{profile: req.req.Benchmark, cfg: j.status.Config})
			} else if req.kind == svcUpload && !j.status.Cached {
				// The uploads are the s27 netlist.
				jobs = append(jobs, job{profile: "s27", cfg: j.status.Config})
			}
		}
	}
	roundSpans(rec, rd)
	st := rd.stats
	r.put("service.submit_ms", "ms", submit)
	r.put("service.result_ms", "ms", result)
	r.exact("service.circuit_cache_hits", "count", float64(st.CircuitCache.Hits))
	r.exact("service.circuit_parses", "count", float64(st.CircuitCache.Parses))
	r.exact("service.result_cache_hits", "count", float64(st.ResultCache.Hits))
	r.exact("service.result_cache_misses", "count", float64(st.ResultCache.Misses))
	r.exact("service.sse_events", "count", float64(events))
	r.exact("service.sse_dropped", "count", float64(dropped))
	return jobs, nil
}

// roundSpans records each service job as a span with its submit, event
// stream and result fetch as children, from the times the clients took.
func roundSpans(rec *recorder, rd svcRound) {
	at := func(t time.Time) time.Duration { return t.Sub(rec.t0) }
	for c, jobs := range rd.jobs {
		for pos, j := range jobs {
			id := c*len(jobs) + pos
			root := len(rec.spans)
			submitted, fetching := j.start.Add(j.submit), j.end.Add(-j.result)
			rec.spans = append(rec.spans,
				span{Name: "service.job", ID: id, Parent: -1, Start: at(j.start), End: at(j.end)},
				span{Name: "service.submit", ID: id, Parent: root, Start: at(j.start), End: at(submitted)},
				span{Name: "service.events", ID: id, Parent: root, Start: at(submitted), End: at(fetching)},
				span{Name: "service.result", ID: id, Parent: root, Start: at(fetching), End: at(j.end)})
		}
	}
}
