package main

import (
	"math/bits"
	"math/rand"
	"time"

	"fogbuster/internal/compact"
	"fogbuster/internal/core"
	"fogbuster/internal/faults"
	"fogbuster/internal/fausim"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/order"
	"fogbuster/internal/semilet"
	"fogbuster/internal/sim"
	"fogbuster/internal/tdgen"
	"fogbuster/internal/tdsim"
	"fogbuster/internal/testability"
	"fogbuster/pkg/atpg"
)

// layers accumulates the per-layer counts of the traced replay. Times
// come from the spans; everything else is counted at the call sites.
type layers struct {
	tdgenNext, tdgenBacktracks, tdgenSolutions, tdgenUntestable, tdgenAborted int
	tdgenAlloc                                                                uint64
	faultMS                                                                   []float64

	propCalls, propFail, propAborted int
	syncCalls, syncFail, syncAborted int
	budgetUsed                       int

	validateCalls, lanesConfirmed, rejects int
	detectCalls, detected                  int

	compactMS                       float64
	dropped, splices, patternsSaved int
	tested, untestable, aborted     int
	permutation                     time.Duration
}

// Derived-stream tags of the replay's per-fault seeds.
const (
	streamGen  = 1 << 30
	streamProp = 1<<30 | 1
)

// mix derives a stream seed (splitmix64 finalizer over seed and tag).
// The replay seeds every fault from the workload seed through mix; it
// does not reproduce the engine's private per-fault derivation, so its
// search may take other branches once decision probing starts.
func mix(seed int64, tag uint64) int64 {
	z := uint64(seed) ^ 0x5851F42D4C957F2D + 0x9E3779B97F4A7C15*(tag+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// replayer drives one circuit through the Figure 4 loop of
// core.(*worker).generate with the engine's options, single-threaded,
// calling only the layer packages' exported entry points.
type replayer struct {
	rec  *recorder
	lm   *layers
	c    *netlist.Circuit
	net  *sim.Net
	alg  *logic.Algebra
	meas *testability.Measures
	sem  *semilet.Engine
	td   *tdsim.Sim
	seed int64

	fseed int64
	lanes [64]*rand.Rand

	ppos                           []netlist.NodeID
	s0, s1, v1, v2, frame3, goodS2 []sim.V3
	vals8                          []logic.Value
	ff                             tdsim.FastFrame
	fb                             tdsim.FillBatch
	vals64, state64                []sim.Word
}

func newReplayer(rec *recorder, lm *layers, c *netlist.Circuit, topo *sim.Topology, meas *testability.Measures, seed int64) *replayer {
	net := sim.NewNetOn(topo)
	rp := &replayer{
		rec: rec, lm: lm, c: c, net: net, alg: logic.Robust, meas: meas, seed: seed,
		sem:    semilet.NewEngine(net, semilet.Options{Meas: meas}),
		td:     tdsim.New(net, logic.Robust),
		ppos:   c.PPOs(),
		s0:     make([]sim.V3, len(c.DFFs)),
		s1:     make([]sim.V3, len(c.DFFs)),
		v1:     make([]sim.V3, len(c.PIs)),
		v2:     make([]sim.V3, len(c.PIs)),
		frame3: make([]sim.V3, len(c.Nodes)),
		goodS2: make([]sim.V3, len(c.DFFs)),
		vals8:  make([]logic.Value, len(c.Nodes)),
		fb: tdsim.FillBatch{
			V1: make([]sim.Word, len(c.PIs)), V2: make([]sim.Word, len(c.PIs)),
			S0: make([]sim.Word, len(c.DFFs)), S1: make([]sim.Word, len(c.DFFs)),
		},
		vals64:  make([]sim.Word, len(c.Nodes)),
		state64: make([]sim.Word, len(c.DFFs)),
	}
	for i := range rp.lanes {
		rp.lanes[i] = rand.New(rand.NewSource(0))
	}
	return rp
}

// run replays the workload's targeting loop: order the faults, target
// each pending one in the window, credit what its test detects, and
// compact at the end when the configuration asks for it.
func (rp *replayer) run(cfg atpg.Config) {
	all := faults.AllDelay(rp.c)
	index := make(map[faults.Delay]int, len(all))
	for i, f := range all {
		index[f] = i
	}
	h, _ := order.Parse(cfg.Order) // validated by atpg.New during set-up
	sp := rp.rec.begin("order.permutation", -1, -1)
	perm := order.Permutation(rp.c, all, h, cfg.Seed)
	rp.lm.permutation += rp.rec.end(sp)

	hi := len(all)
	if cfg.MaxTargets > 0 && cfg.MaxTargets < hi {
		hi = cfg.MaxTargets
	}
	sum := &core.Summary{Circuit: rp.c.Name, Results: make([]core.FaultResult, len(all))}
	for i, f := range all {
		sum.Results[i].Fault = f
	}
	status := func(i int) core.Status { return sum.Results[i].Status }
	for p := 0; p < hi; p++ {
		i := p
		if perm != nil {
			i = perm[p]
		}
		if status(i) != core.Pending {
			continue
		}
		fs := rp.rec.begin("fault", i, -1)
		st, seq, ff := rp.generate(i, all[i], fs)
		sum.Results[i].Status = st
		if st == core.Tested {
			var skip func(faults.Delay) bool
			if !cfg.Compact {
				skip = func(f faults.Delay) bool {
					j, ok := index[f]
					return !ok || status(j) != core.Pending
				}
			}
			ds := rp.rec.begin("tdsim.detect", i, fs)
			det := rp.td.Detect(ff, skip)
			rp.rec.end(ds)
			rp.lm.detectCalls++
			rp.lm.detected += len(det)
			for _, f := range det {
				if j, ok := index[f]; ok && status(j) == core.Pending {
					sum.Results[j].Status = core.TestedBySim
				}
			}
			seq.Detects = det
			sum.Results[i].Seq = seq
			sum.SeqOrder = append(sum.SeqOrder, i)
		}
		rp.rec.end(fs)
	}
	for _, r := range sum.Results {
		switch r.Status {
		case core.Tested, core.TestedBySim:
			rp.lm.tested++
		case core.Untestable:
			rp.lm.untestable++
		case core.Aborted:
			rp.lm.aborted++
		}
	}
	if cfg.Compact {
		cs := rp.rec.begin("compact.apply", -1, -1)
		stats := compact.Apply(rp.c, sum, compact.Options{Algebra: rp.alg, Seed: cfg.Seed})
		rp.lm.compactMS += ms(rp.rec.end(cs))
		rp.lm.dropped += stats.Dropped
		rp.lm.splices += stats.Splices
		rp.lm.patternsSaved += stats.PatternsBefore - stats.PatternsAfter
	}
}

// generate mirrors core.(*worker).generate: local generation, forward
// propagation when the effect reached only the state register,
// synchronization, then validation; a failed sequential phase or a
// rejected candidate backtracks into TDgen for the next local test.
func (rp *replayer) generate(i int, f faults.Delay, parent int) (core.Status, *core.TestSequence, *tdsim.FastFrame) {
	rec, lm := rp.rec, rp.lm
	rp.fseed = mix(rp.seed, uint64(i))
	var tdgenTime time.Duration
	timed := func(name string, call func()) time.Duration {
		s := rec.begin(name, i, parent)
		call()
		return rec.end(s)
	}
	tdgenCall := func(name string, call func()) {
		a := heapAllocs()
		tdgenTime += timed(name, call)
		lm.tdgenAlloc += heapAllocs() - a
	}

	var gen *tdgen.Generator
	tdgenCall("tdgen.new", func() {
		gen = tdgen.New(rp.net, f, rp.meas, tdgen.Options{Algebra: rp.alg, Probe: true, ProbeSeed: mix(rp.fseed, streamGen)})
	})
	rp.sem.SetProbe(mix(rp.fseed, streamProp), false)
	budget := semilet.NewBudget(100)
	defer func() {
		lm.tdgenBacktracks += gen.Backtracks()
		lm.budgetUsed += budget.Used
		lm.faultMS = append(lm.faultMS, ms(tdgenTime))
	}()

	for attempt := 0; ; {
		var sol *tdgen.Solution
		var st tdgen.Status
		tdgenCall("tdgen.next", func() { sol, st = gen.Next() })
		lm.tdgenNext++
		switch st {
		case tdgen.Untestable:
			lm.tdgenUntestable++
			return core.Untestable, nil, nil
		case tdgen.Aborted:
			lm.tdgenAborted++
			return core.Aborted, nil, nil
		}
		lm.tdgenSolutions++
		seq := &core.TestSequence{Fault: f, V1: sol.V1, V2: sol.V2, ObservePO: sol.ObservePO, ObservePPO: sol.ObservePPO}

		if sol.ObservePO < 0 {
			var prop *semilet.PropResult
			var pst semilet.Status
			timed("semilet.propagate", func() { prop, pst = rp.sem.Propagate(sol.PPOFinal, budget) })
			lm.propCalls++
			if pst == semilet.Aborted {
				lm.propAborted++
				return core.Aborted, nil, nil
			}
			if pst != semilet.Success {
				lm.propFail++
				continue
			}
			seq.Prop = prop.Vectors
			seq.ObservePO = prop.PO
		}

		var sync *semilet.SyncResult
		var sst semilet.Status
		timed("semilet.sync", func() { sync, sst = rp.sem.SynchronizeWith(sol.State0, budget, true) })
		lm.syncCalls++
		if sst == semilet.Aborted {
			lm.syncAborted++
			return core.Aborted, nil, nil
		}
		if sst != semilet.Success {
			lm.syncFail++
			continue
		}
		seq.Sync = sync.Vectors
		seq.Assumed = sync.Assumed

		var ff *tdsim.FastFrame
		timed("tdsim.validate", func() { ff = rp.validate(seq, attempt) })
		attempt++
		lm.validateCalls++
		if ff == nil {
			lm.rejects++
			continue
		}
		return core.Tested, seq, ff
	}
}

// lane reseeds and returns the RNG of one X-fill lane of an attempt.
func (rp *replayer) lane(attempt, lane int) *rand.Rand {
	r := rp.lanes[lane&63]
	r.Seed(mix(rp.fseed, uint64(attempt<<6|lane)))
	return r
}

// validate confirms a candidate under 64 X-fill completions: lane 0 with
// the scalar tdsim.Confirm, the other 63 in one tdsim.ConfirmFills pass.
// It returns the first confirming fast frame, or nil.
func (rp *replayer) validate(seq *core.TestSequence, attempt int) *tdsim.FastFrame {
	ff := rp.fastFrame(seq, rp.lane(attempt, 0))
	if rp.confirm(ff, seq.Fault) {
		rp.lm.lanesConfirmed++
		return ff
	}
	det := rp.confirmLanes(seq, attempt) &^ 1
	if det == 0 {
		return nil
	}
	rp.lm.lanesConfirmed += bits.OnesCount64(uint64(det))
	return rp.fastFrame(seq, rp.lane(attempt, bits.TrailingZeros64(uint64(det))))
}

// fastFrame fills the sequence's don't-cares from rng and derives the
// concrete fast clock cycle: power-up state, synchronization replay,
// the two test vectors, the latched test state and the propagation
// vectors.
func (rp *replayer) fastFrame(seq *core.TestSequence, rng *rand.Rand) *tdsim.FastFrame {
	c, net := rp.c, rp.net
	state := rp.s0
	for i := range state {
		if seq.Assumed != nil && seq.Assumed[i].Known() {
			state[i] = seq.Assumed[i]
		} else {
			state[i] = sim.V3(rng.Intn(2))
		}
	}
	if syncV := fausim.FillSequence(seq.Sync, rng); len(syncV) > 0 {
		steps := net.SeqSim3(state, syncV)
		copy(state, steps[len(steps)-1].State)
	}
	for i := range state {
		if state[i] == sim.X {
			state[i] = sim.V3(rng.Intn(2))
		}
	}
	fill := func(dst, vec []sim.V3) {
		for i, v := range vec {
			if v == sim.X {
				v = sim.V3(rng.Intn(2))
			}
			dst[i] = v
		}
	}
	fill(rp.v1, seq.V1)
	fill(rp.v2, seq.V2)
	net.LoadFrameInto(rp.frame3, rp.v1, state)
	net.Eval3(rp.frame3, nil)
	t := net.T
	for i, ffn := range c.DFFs {
		v := rp.frame3[t.Fanin[t.FaninOff[ffn]]]
		if v == sim.X {
			v = sim.V3(rng.Intn(2))
		}
		rp.s1[i] = v
	}
	rp.ff = tdsim.FastFrame{V1: rp.v1, V2: rp.v2, S0: state, S1: rp.s1, Prop: fausim.FillSequence(seq.Prop, rng)}
	return &rp.ff
}

// confirm is the scalar check of one concrete fast frame.
func (rp *replayer) confirm(ff *tdsim.FastFrame, f faults.Delay) bool {
	rp.net.LoadFrame8Into(rp.vals8, ff.V1, ff.V2, ff.S0, ff.S1)
	rp.net.Eval8(rp.alg, rp.vals8, nil)
	for i, ppo := range rp.ppos {
		rp.goodS2[i] = sim.V3(rp.vals8[ppo].Final())
	}
	return rp.td.Confirm(ff, rp.vals8, rp.goodS2, f)
}

// confirmLanes derives the attempt's 64 fill lanes site by site on
// packed words, each lane drawing its own stream, and confirms them in
// one tdsim.ConfirmFills pass.
func (rp *replayer) confirmLanes(seq *core.TestSequence, attempt int) sim.Word {
	for lane := 0; lane < 64; lane++ {
		rp.lane(attempt, lane)
	}
	draw := func() sim.Word {
		var w sim.Word
		for k := 0; k < 64; k++ {
			w |= sim.Word(rp.lanes[k].Intn(2)) << uint(k)
		}
		return w
	}
	word := func(v sim.V3) sim.Word {
		switch v {
		case sim.Hi:
			return ^sim.Word(0)
		case sim.Lo:
			return 0
		}
		return draw()
	}
	c, net, fb := rp.c, rp.net, &rp.fb
	t := net.T
	latch := func(dst []sim.Word) {
		for i, ffn := range c.DFFs {
			dst[i] = rp.vals64[t.Fanin[t.FaninOff[ffn]]]
		}
	}
	state := rp.state64
	for i := range c.DFFs {
		if seq.Assumed != nil && seq.Assumed[i].Known() {
			state[i] = word(seq.Assumed[i])
		} else {
			state[i] = draw()
		}
	}
	for _, vec := range seq.Sync {
		for i, pi := range c.PIs {
			rp.vals64[pi] = word(vec[i])
		}
		for i, ffn := range c.DFFs {
			rp.vals64[ffn] = state[i]
		}
		net.Eval64(rp.vals64)
		latch(state)
	}
	copy(fb.S0, state)
	for i, v := range seq.V1 {
		fb.V1[i] = word(v)
	}
	for i, v := range seq.V2 {
		fb.V2[i] = word(v)
	}
	for i, pi := range c.PIs {
		rp.vals64[pi] = fb.V1[i]
	}
	for i, ffn := range c.DFFs {
		rp.vals64[ffn] = fb.S0[i]
	}
	net.Eval64(rp.vals64)
	latch(fb.S1)
	fb.Prop = fb.Prop[:0]
	for _, vec := range seq.Prop {
		row := make([]sim.Word, len(c.PIs))
		for i, v := range vec {
			row[i] = word(v)
		}
		fb.Prop = append(fb.Prop, row)
	}
	return rp.td.ConfirmFills(fb, seq.Fault)
}
