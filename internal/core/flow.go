package core

import (
	"context"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"fogbuster/internal/faults"
	"fogbuster/internal/fausim"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/semilet"
	"fogbuster/internal/sim"
	"fogbuster/internal/tdgen"
	"fogbuster/internal/tdsim"
)

// worker owns one full clone of the mutable per-fault ATPG state: its own
// circuit view (the simulators keep scratch buffers on it), sequential
// engine, fault simulators and X-fill RNGs. Workers share only read-only
// inputs (circuit, testability measures, timing analysis, options) and
// the run's coordination state (runState).
type worker struct {
	e   *Engine
	net *sim.Net
	sem *semilet.Engine
	td  *tdsim.Sim
	rng *rand.Rand

	// Per-fault search state. fseed is the fault's master seed; every
	// random stream of the search (fill lanes, decision probes) is derived
	// from it, so the whole per-fault outcome is a pure function of
	// (engine, fault index) — the worker-count invariance contract.
	// attempts counts validated candidates of the current fault; each one
	// consumes 64 fill-lane streams.
	fseed    int64
	attempts int
	lanes    [64]*rand.Rand

	// Hoisted fill scratch: the fast-frame derivation runs once per
	// candidate (and 64 more times, lane-parallel, when the first fill
	// misses), so its buffers live on the worker instead of the heap. At
	// most one FastFrame per worker is alive at a time; its slices alias
	// these buffers.
	ppos   []netlist.NodeID
	ffS0   []sim.V3
	ffS1   []sim.V3
	ffV1   []sim.V3
	ffV2   []sim.V3
	frame3 []sim.V3
	vals8  []logic.Value
	goodS2 []sim.V3
	ff     tdsim.FastFrame

	// Lane-parallel fill scratch (confirmLanes).
	fb       tdsim.FillBatch
	vals64   []sim.Word
	state64  []sim.Word
	propRows [][]sim.Word
}

// Derived-stream tags for the per-fault probe seeds. Fill lanes use
// attempt<<6|lane, so any tag ≥ 1<<30 is collision-free until an
// absurd 2^24 attempts.
const (
	probeStreamGen  = 1 << 30
	probeStreamProp = 1<<30 | 1
)

// newWorker clones the mutable engine state for one worker goroutine:
// the Net (simulator scratch) is private, the CSR topology behind it is
// the engine's shared immutable one.
func (e *Engine) newWorker() *worker {
	net := sim.NewNetOn(e.topo)
	td := tdsim.New(net, e.alg)
	td.SetFullEval(e.opts.Reference)
	c := e.c
	w := &worker{
		e:   e,
		net: net,
		sem: semilet.NewEngine(net, semilet.Options{MaxFrames: e.opts.MaxFrames, Meas: e.meas, FullEval: e.opts.Reference}),
		td:  td,

		ppos:   c.PPOs(),
		ffS0:   make([]sim.V3, len(c.DFFs)),
		ffS1:   make([]sim.V3, len(c.DFFs)),
		ffV1:   make([]sim.V3, len(c.PIs)),
		ffV2:   make([]sim.V3, len(c.PIs)),
		frame3: make([]sim.V3, len(c.Nodes)),
		vals8:  make([]logic.Value, len(c.Nodes)),
		goodS2: make([]sim.V3, len(c.DFFs)),

		fb: tdsim.FillBatch{
			V1: make([]sim.Word, len(c.PIs)),
			V2: make([]sim.Word, len(c.PIs)),
			S0: make([]sim.Word, len(c.DFFs)),
			S1: make([]sim.Word, len(c.DFFs)),
		},
		vals64:  make([]sim.Word, len(c.Nodes)),
		state64: make([]sim.Word, len(c.DFFs)),
	}
	for i := range w.lanes {
		w.lanes[i] = rand.New(rand.NewSource(0)) //lint:allow determinism placeholder stream; seedLane reseeds per (attempt,lane) before every draw
	}
	return w
}

// faultSeed derives the per-fault X-fill seed from the run seed and the
// fault index (splitmix64 finalizer). Reseeding per fault is what makes
// the fill stream — and with it the whole Summary — independent of the
// order in which workers claim faults.
func faultSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(uint64(i)+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// seedLane reseeds and returns lane's RNG for the given fill attempt.
// Every (attempt, lane) pair gets its own derived stream, which is the
// keystone of the batched/scalar equivalence: the lane-parallel fill can
// draw site-major (one draw per lane at each X site) while the scalar
// reference draws lane-major (one full frame per lane), and both read
// the identical per-lane subsequences.
func (w *worker) seedLane(attempt, lane int) *rand.Rand {
	r := w.lanes[lane&63]
	r.Seed(faultSeed(w.fseed, attempt<<6|lane))
	return r
}

// runState bundles the shared coordination state of one RunContext
// execution: the fault universe, the targeting permutation, the
// authoritative status array (written only by the merge loop), the claim
// counter over the run's window, and the outcome channel into the merge
// loop.
type runState struct {
	all     []faults.Delay
	perm    []int
	status  []atomic.Uint32
	results chan faultOutcome

	// next counts the positions handed out so far. Claim order is pure
	// scheduling — the merge loop commits outcomes in canonical
	// permutation order whatever it is — but one shared counter handing
	// positions out in ascending order from lo keeps the claims close to
	// the commit cursor, which bounds the merge loop's reorder buffer at
	// O(workers). The window [lo, hi) is the whole targeted prefix for an
	// ordinary run and a sub-range of it for a shard
	// (Options.ShardLo/ShardHi).
	next   atomic.Int64
	lo, hi int
}

// claim hands out the next targeting position of the window, exactly
// once across all workers, or ok=false when the window is exhausted.
func (rs *runState) claim() (p int, ok bool) {
	p = rs.lo + int(rs.next.Add(1)) - 1
	return p, p < rs.hi
}

// faultAt maps a targeting position to its fault index.
func (rs *runState) faultAt(p int) int {
	if rs.perm != nil {
		return rs.perm[p]
	}
	return p
}

// run claims targeting positions until the window is exhausted, sending
// exactly one outcome per claimed position. A fault the merge loop has
// already credited is skipped with an empty outcome; that check is
// advisory (a stale read costs a wasted generation that the merge loop
// discards), so no lock is ever held.
//
// A done context makes the worker return without completing its claimed
// position: the merge loop has already stopped committing, so a missing
// outcome can never stall it, and an interrupted search never produces a
// (possibly truncated, therefore wrong) outcome.
func (w *worker) run(ctx context.Context, rs *runState) {
	done := ctx.Done()
	for {
		if ctx.Err() != nil {
			return
		}
		p, ok := rs.claim()
		if !ok {
			return
		}
		i := rs.faultAt(p)
		o := faultOutcome{idx: p}
		if Status(rs.status[i].Load()) == Pending {
			var interrupted bool
			o, interrupted = w.process(ctx, rs, p, i)
			if interrupted {
				return
			}
		}
		select {
		case rs.results <- o:
		case <-done:
			return
		}
	}
}

// process runs the complete per-fault pipeline — seeded X-fill stream,
// generation, post-generation credit sweep — for the fault at targeting
// position p (fault index i) and returns the outcome, or interrupted
// when a done context cut the search short (the outcome is then
// meaningless and must not be sent or committed). It is deterministic in
// (engine, fault index), whichever worker runs it.
func (w *worker) process(ctx context.Context, rs *runState, p, i int) (faultOutcome, bool) {
	w.fseed = faultSeed(w.e.opts.Seed, i)
	w.attempts = 0
	w.rng = rand.New(rand.NewSource(w.fseed))
	o := faultOutcome{idx: p}
	var ff *tdsim.FastFrame
	var interrupted bool
	o.seq, ff, o.status, o.valFail, interrupted = w.generate(ctx, rs.all[i])
	if interrupted || ctx.Err() != nil {
		// An outcome sent to the merge loop must always be the complete
		// deterministic one — the loop may commit it even after
		// cancellation — so a worker that noticed the done context bails
		// out entirely rather than, say, skipping the credit sweep.
		return o, true
	}
	if o.status == Tested && !w.e.opts.DisableFaultSim {
		// Post-generation fault simulation runs here, on the worker,
		// so the expensive CPT and confirmation work parallelizes;
		// only the status bookkeeping happens on the merge loop. The
		// skip filter reads racy status snapshots purely to save
		// work: the merge loop re-checks every detected fault. With
		// Compact or DeferCredit the filter is dropped so the
		// recorded detection set is complete and independent of
		// claim timing; that changes no credit decision, because a
		// fault still pending at commit time was also pending at
		// detect time and is in the filtered list either way. The
		// deferred-credit merge (pkg/atpg MergeResults) additionally
		// needs the complete set because the globally-pending faults
		// of other shards are unknowable here.
		skip := func(f faults.Delay) bool {
			j, ok := w.e.index[f]
			return !ok || Status(rs.status[j].Load()) != Pending
		}
		if w.e.opts.Compact || w.e.opts.DeferCredit {
			skip = nil
		}
		if ff == nil {
			// Validation disabled: the winning frame was never derived.
			ff = w.fastFrame(o.seq)
		}
		if w.e.opts.Reference {
			o.detected = w.td.DetectScalar(ff, skip)
		} else {
			o.detected = w.td.Detect(ff, skip)
		}
	}
	return o, false
}

// generate runs the extended FOGBUSTER flow (Figure 4) for one fault:
// local test generation, then — if the effect only reached the state
// register — forward propagation to a PO, then synchronization of the
// required initial state. A failure in a sequential phase backtracks into
// the local generator for the next distinct local test. On Tested it also
// returns the validated fast frame (the winning X-fill completion), so
// the credit sweep never re-derives it. It also returns how many
// candidate sequences the independent validator rejected, and whether a
// done context interrupted the search (the other return values are then
// meaningless and must not be committed).
func (w *worker) generate(ctx context.Context, f faults.Delay) (*TestSequence, *tdsim.FastFrame, Status, int, bool) {
	gen := tdgen.New(w.net, f, w.e.meas, tdgen.Options{
		Algebra:       w.e.alg,
		MaxBacktracks: w.e.opts.LocalBacktracks,
		Probe:         true,
		ScalarProbe:   w.e.opts.Reference,
		ProbeSeed:     faultSeed(w.fseed, probeStreamGen),
	})
	w.sem.SetProbe(faultSeed(w.fseed, probeStreamProp), w.e.opts.Reference)
	budget := semilet.NewBudget(w.e.opts.SeqBacktracks)
	valFail := 0

	for {
		// Checked once per local alternative: each tdgen/semilet phase is
		// budget-bounded, so this is the promptness granularity of
		// cancellation.
		if ctx.Err() != nil {
			return nil, nil, Pending, valFail, true
		}
		sol, st := gen.Next()
		switch st {
		case tdgen.Untestable:
			return nil, nil, Untestable, valFail, false
		case tdgen.Aborted:
			return nil, nil, Aborted, valFail, false
		}

		seq := &TestSequence{
			Fault:      f,
			V1:         sol.V1,
			V2:         sol.V2,
			ObservePO:  sol.ObservePO,
			ObservePPO: sol.ObservePPO,
		}

		// Forward propagation phase: only needed when the local test
		// observes the effect at a PPO.
		if sol.ObservePO < 0 {
			prop, pst := w.sem.Propagate(w.handoff(sol), budget)
			if pst == semilet.Aborted {
				return nil, nil, Aborted, valFail, false
			}
			if pst != semilet.Success {
				continue // backtrack into the local generator
			}
			seq.Prop = prop.Vectors
			seq.ObservePO = prop.PO
		}

		// Initialization phase: a synchronizing sequence to the required
		// state of the local test.
		sync, sst := w.sem.SynchronizeWith(sol.State0, budget, !w.e.opts.StrictInit)
		if sst == semilet.Aborted {
			return nil, nil, Aborted, valFail, false
		}
		if sst != semilet.Success {
			continue
		}
		seq.Sync = sync.Vectors
		seq.Assumed = sync.Assumed

		if !w.e.opts.DisableValidation {
			ff, ok := w.validate(seq)
			if !ok {
				valFail++
				continue
			}
			return seq, ff, Tested, valFail, false
		}
		return seq, nil, Tested, valFail, false
	}
}

// handoff returns the state knowledge passed to the propagation phase.
// With the timing refinement enabled (the paper's future work), PPOs the
// robust model could not specify are lifted to known final values when
// they are fault-free, settle to a uniform value, and stabilize with at
// least VariationBudget delay units of slack before the fast capture
// edge.
func (w *worker) handoff(sol *tdgen.Solution) []sim.V5 {
	if w.e.tim == nil {
		return sol.PPOFinal
	}
	lifted := append([]sim.V5(nil), sol.PPOFinal...)
	for i, ppo := range w.e.c.PPOs() {
		if lifted[i] != sim.X5 {
			continue
		}
		set := sol.Sets[ppo]
		if set.Empty() || set&logic.CarrySet != 0 {
			continue
		}
		if w.e.tim.Slack(ppo) < int32(w.e.opts.VariationBudget) {
			continue
		}
		var fin [2]bool
		for _, v := range set.Values() {
			fin[v.Final()] = true
		}
		switch {
		case fin[1] && !fin[0]:
			lifted[i] = sim.O5
		case fin[0] && !fin[1]:
			lifted[i] = sim.Z5
		}
	}
	return lifted
}

// fastFrame fills the sequence's don't-cares from the worker's per-fault
// stream; it backs the validation-disabled path, where no lane structure
// exists and the fill draws straight from the fault's master RNG.
func (w *worker) fastFrame(seq *TestSequence) *tdsim.FastFrame {
	return w.fastFrameWith(seq, w.rng)
}

// fillInto is XFill into a caller-owned buffer.
func fillInto(dst, vec []sim.V3, rng *rand.Rand) {
	for i, v := range vec {
		if v == sim.X {
			dst[i] = sim.V3(rng.Intn(2))
		} else {
			dst[i] = v
		}
	}
}

// fastFrameWith fills the sequence's don't-cares from rng and derives the
// concrete two-frame situation of the fast clock cycle, simulating the
// good machine from a random power-up state through the initialization
// and the initial time frame (the paper's fault simulation phase 1). The
// returned frame aliases worker-owned scratch: it is valid until the next
// fastFrameWith call on this worker.
func (w *worker) fastFrameWith(seq *TestSequence, rng *rand.Rand) *tdsim.FastFrame {
	state := w.ffS0
	for i := range state {
		if seq.Assumed != nil && seq.Assumed[i].Known() {
			state[i] = seq.Assumed[i]
		} else {
			state[i] = sim.V3(rng.Intn(2))
		}
	}
	syncV := fausim.FillSequence(seq.Sync, rng)
	if len(syncV) > 0 {
		steps := w.net.SeqSim3(state, syncV)
		copy(state, steps[len(steps)-1].State)
	}
	for i := range state {
		if state[i] == sim.X {
			state[i] = sim.V3(rng.Intn(2))
		}
	}
	fillInto(w.ffV1, seq.V1, rng)
	fillInto(w.ffV2, seq.V2, rng)
	w.net.LoadFrameInto(w.frame3, w.ffV1, state)
	w.net.Eval3(w.frame3, nil)
	t := w.net.T
	for i, ff := range w.e.c.DFFs {
		v := w.frame3[t.Fanin[t.FaninOff[ff]]]
		if v == sim.X {
			v = sim.V3(rng.Intn(2))
		}
		w.ffS1[i] = v
	}
	w.ff = tdsim.FastFrame{
		V1: w.ffV1, V2: w.ffV2,
		S0: state, S1: w.ffS1,
		Prop: fausim.FillSequence(seq.Prop, rng),
	}
	return &w.ff
}

// confirm checks one concrete fast frame: fault-free two-frame values,
// the good captured state, then the full Confirm decision.
func (w *worker) confirm(ff *tdsim.FastFrame, f faults.Delay) bool {
	w.net.LoadFrame8Into(w.vals8, ff.V1, ff.V2, ff.S0, ff.S1)
	w.net.Eval8(w.e.alg, w.vals8, nil)
	for i, ppo := range w.ppos {
		w.goodS2[i] = sim.V3(w.vals8[ppo].Final())
	}
	return w.td.Confirm(ff, w.vals8, w.goodS2, f)
}

// confirmLanes derives 64 deterministic X-fill completions of the
// candidate — lane k drawing exactly the per-lane stream seedLane(attempt,
// k) — and confirms all of them in one lane-parallel pass
// (tdsim.ConfirmFills), returning the word of detecting lanes.
//
// The derivation mirrors fastFrameWith site by site on packed words: the
// power-up state, the synchronization replay (all inputs are binary per
// lane, so the three-valued good simulation degenerates to Eval64, which
// is exact), the two fast-frame vectors, the latched test state and the
// propagation vectors. At every X site one bit is drawn per lane, in the
// scalar visit order, so each lane's draw subsequence is identical to a
// scalar fastFrameWith on that lane's RNG — site-major and lane-major
// enumeration commute because the streams are independent.
func (w *worker) confirmLanes(seq *TestSequence, attempt int) sim.Word {
	for lane := 0; lane < 64; lane++ {
		w.seedLane(attempt, lane)
	}
	draw := func() sim.Word {
		var wd sim.Word
		for k := 0; k < 64; k++ {
			wd |= sim.Word(w.lanes[k].Intn(2)) << uint(k)
		}
		return wd
	}
	wordFor := func(v sim.V3) sim.Word {
		switch v {
		case sim.Hi:
			return ^sim.Word(0)
		case sim.Lo:
			return 0
		}
		return draw()
	}
	c := w.e.c
	t := w.net.T
	fb := &w.fb

	// Power-up state.
	state := w.state64
	for i := range c.DFFs {
		if seq.Assumed != nil && seq.Assumed[i].Known() {
			state[i] = wordFor(seq.Assumed[i])
		} else {
			state[i] = draw()
		}
	}
	// Synchronization replay, 64 lanes per pass.
	for _, vec := range seq.Sync {
		for i, pi := range c.PIs {
			w.vals64[pi] = wordFor(vec[i])
		}
		for i, ffn := range c.DFFs {
			w.vals64[ffn] = state[i]
		}
		w.net.Eval64(w.vals64)
		for i, ffn := range c.DFFs {
			state[i] = w.vals64[t.Fanin[t.FaninOff[ffn]]]
		}
	}
	copy(fb.S0, state)
	for i, v := range seq.V1 {
		fb.V1[i] = wordFor(v)
	}
	for i, v := range seq.V2 {
		fb.V2[i] = wordFor(v)
	}
	// Latched test state: the initial frame is fully binary in every lane,
	// so the capture draws nothing.
	for i, pi := range c.PIs {
		w.vals64[pi] = fb.V1[i]
	}
	for i, ffn := range c.DFFs {
		w.vals64[ffn] = fb.S0[i]
	}
	w.net.Eval64(w.vals64)
	for i, ffn := range c.DFFs {
		fb.S1[i] = w.vals64[t.Fanin[t.FaninOff[ffn]]]
	}
	// Propagation vectors.
	fb.Prop = fb.Prop[:0]
	for _, vec := range seq.Prop {
		var row []sim.Word
		if len(fb.Prop) < len(w.propRows) {
			row = w.propRows[len(fb.Prop)]
		} else {
			row = make([]sim.Word, len(c.PIs))
			w.propRows = append(w.propRows, row)
		}
		for i, v := range vec {
			row[i] = wordFor(v)
		}
		fb.Prop = append(fb.Prop, row)
	}
	return w.td.ConfirmFills(fb, seq.Fault)
}

// validate replays the generated sequence with the fault injected and
// checks that the promised observation really happens: robust carrying at
// a PO in the fast frame, or a good/faulty difference at a PO after the
// propagation frames. The checker shares no code with the generator's
// search (it uses the concrete simulators), so it is an independent
// witness.
//
// Each candidate gets 64 X-fill trials instead of one: a candidate that
// dies on an unlucky fill is salvaged by any of 63 alternate completions.
// The first lane is checked scalar — the common case, a candidate whose
// first fill confirms, costs exactly one frame — and the remaining 63
// in one lane-parallel pass, committing the lowest-index detecting lane.
// The scalar reference (Options.Reference) enumerates the identical
// lanes one frame at a time, first detect wins; both paths pick the same
// lane and return bit-identical frames, so every downstream artifact
// (Summary, canonical JSON) is invariant under the switch.
func (w *worker) validate(seq *TestSequence) (*tdsim.FastFrame, bool) {
	attempt := w.attempts
	w.attempts++
	ff := w.fastFrameWith(seq, w.seedLane(attempt, 0))
	if w.confirm(ff, seq.Fault) {
		return ff, true
	}
	if w.e.opts.Reference {
		for lane := 1; lane < 64; lane++ {
			ff = w.fastFrameWith(seq, w.seedLane(attempt, lane))
			if w.confirm(ff, seq.Fault) {
				return ff, true
			}
		}
		return nil, false
	}
	// Lane 0 is re-derived inside the batch (identical stream, identical
	// verdict) but masked out: its scalar verdict above is authoritative.
	det := w.confirmLanes(seq, attempt) &^ 1
	if det == 0 {
		return nil, false
	}
	return w.fastFrameWith(seq, w.seedLane(attempt, bits.TrailingZeros64(uint64(det)))), true
}
