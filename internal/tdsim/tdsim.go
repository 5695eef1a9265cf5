// Package tdsim implements TDsim, the delay fault simulator integrated in
// TDgen (paper Section 5, phase 3): robust gate delay fault simulation of
// the fast time frame by critical path tracing (CPT) from all primary
// outputs and from the PPOs that FAUSIM found observable in the
// propagation phase, including the invalidation analysis for faults
// detected through a PPO. It also owns phase 1, the derivation of the
// concrete fast frame from a test's don't-cares (DeriveFrame), and
// Detect runs phase 2 (fausim.ObservablePPOs) and phase 3 over one good
// replay of the propagation frames.
//
// Critical path tracing yields candidate faults; each candidate is
// confirmed by exact fault injection in the eight-valued two-frame
// algebra, which handles reconvergent stems soundly. A candidate observed
// only at a PPO is finally confirmed by replaying the propagation frames
// with the corrupted captured state, which subsumes the paper's separate
// invalidation CPT: a side effect that destroys a state value the
// propagation relied on simply makes the replay lose the difference.
//
// Confirmation runs word-parallel by default: ConfirmBatch packs 64
// candidates per machine word through the carry-rail encoding of the
// eight-valued algebra (sim.EvalCarry64) and a batched dual-rail pair
// replay (fausim.PairDiffBatch, the kernel phase 2 runs on too), with
// verdicts bit-identical to the scalar Confirm, which remains the
// reference oracle (see DESIGN.md §6).
package tdsim

import (
	"math/rand"

	"fogbuster/internal/faults"
	"fogbuster/internal/fausim"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// Sim performs fast-frame delay fault simulation for one algebra. The
// per-candidate confirmation path reuses scratch buffers held on the Sim,
// so one Sim must not be shared between goroutines; the core engine
// builds one per worker.
type Sim struct {
	net *sim.Net
	alg *logic.Algebra
	fs  *fausim.Sim

	// fullEval forces the full levelized walks instead of the
	// event-driven selective-trace kernels. The two are bit-identical
	// (TestConfirmEventMatchesFullEval and the engine-level invariance
	// suite); the flag exists as the reference oracle.
	fullEval bool

	// Scratch reused across Confirm calls (one Eval8 pass per candidate
	// fault runs on these instead of fresh allocations).
	vals8    []logic.Value
	next8    []logic.Value
	faultyS2 []sim.V3

	// Scratch for the word-parallel credit path (ConfirmBatch): the
	// per-node carry rail, the per-FF faulty capture words, the 64-way
	// delay injector and the verdict buffer.
	carry    []sim.Word
	faultyV  []sim.Word
	injD     *sim.InjectDelay64
	verdicts []bool

	// Scratch for the lane-parallel X-fill confirmation (ConfirmFills),
	// built on first use.
	fill *fillScratch

	// The derived fast frame (DeriveFrame) and the buffers it aliases.
	ff       FastFrame
	s0, s1   []sim.V3
	v1, v2   []sim.V3
	pi       []sim.V3
	frame3   []sim.V3
	propRows [][]sim.V3
}

// New builds the simulator.
func New(net *sim.Net, alg *logic.Algebra) *Sim {
	return &Sim{
		net:      net,
		alg:      alg,
		fs:       fausim.New(net),
		vals8:    make([]logic.Value, len(net.C.Nodes)),
		next8:    make([]logic.Value, len(net.C.DFFs)),
		faultyS2: make([]sim.V3, len(net.C.DFFs)),
		carry:    make([]sim.Word, len(net.C.Nodes)),
		faultyV:  make([]sim.Word, len(net.C.DFFs)),
		injD:     net.NewInjectDelay64(),
		s0:       make([]sim.V3, len(net.C.DFFs)),
		s1:       make([]sim.V3, len(net.C.DFFs)),
		v1:       make([]sim.V3, len(net.C.PIs)),
		v2:       make([]sim.V3, len(net.C.PIs)),
		pi:       make([]sim.V3, len(net.C.PIs)),
		frame3:   make([]sim.V3, len(net.C.Nodes)),
	}
}

// SetFullEval selects between the event-driven confirmation kernels
// (default) and the full levelized reference walks, for this Sim and its
// embedded sequence simulator. The carry rail is re-zeroed so the
// event path's all-zero baseline holds even when toggling mid-life.
func (s *Sim) SetFullEval(on bool) {
	s.fullEval = on
	s.fs.SetFullEval(on)
	for i := range s.carry {
		s.carry[i] = 0
	}
}

// FastFrame holds the concrete two-frame situation of one applied test:
// the two PI vectors, the state during the initial frame and the state
// latched for the test frame (all fully specified), plus the propagation
// vectors that follow the fast frame.
type FastFrame struct {
	V1, V2 []sim.V3
	S0, S1 []sim.V3
	Prop   [][]sim.V3
}

// DeriveFrame is the paper's fault simulation phase 1: it fills the
// test's don't-cares from rng and derives the concrete fast frame by
// good-machine simulation through the synchronization frames and the
// initial time frame. The machine starts from entry when the test runs
// right after another one (the compaction splice), and otherwise from a
// random power-up state that keeps the assumed bits (assumed may be
// nil). The draws come in one fixed order — power-up state, sync fills,
// state fill, V1, V2, latched-state fill, propagation fills — which the
// engine's lane-parallel fill mirrors site by site. The returned frame
// lives on buffers the Sim owns and is valid until the next DeriveFrame
// call.
func (s *Sim) DeriveFrame(entry, assumed []sim.V3, sync [][]sim.V3, v1, v2 []sim.V3, prop [][]sim.V3, rng *rand.Rand) *FastFrame {
	net := s.net
	t := net.T
	state := s.s0
	switch {
	case entry != nil:
		copy(state, entry)
	case assumed != nil:
		sim.XFillInto(state, assumed, rng)
	default:
		for i := range state {
			state[i] = sim.V3(rng.Intn(2))
		}
	}
	// Simulation draws nothing, so filling each sync vector just before
	// its frame keeps the all-fills-first draw order.
	for _, vec := range sync {
		sim.XFillInto(s.pi, vec, rng)
		net.LoadFrameInto(s.frame3, s.pi, state)
		net.Eval3(s.frame3, nil)
		for i, ff := range net.C.DFFs {
			state[i] = s.frame3[t.Fanin[t.FaninOff[ff]]]
		}
	}
	sim.XFillInto(state, state, rng)
	sim.XFillInto(s.v1, v1, rng)
	sim.XFillInto(s.v2, v2, rng)
	net.LoadFrameInto(s.frame3, s.v1, state)
	net.Eval3(s.frame3, nil)
	for i, ff := range net.C.DFFs {
		s.s1[i] = s.frame3[t.Fanin[t.FaninOff[ff]]]
	}
	sim.XFillInto(s.s1, s.s1, rng)
	for len(s.propRows) < len(prop) {
		s.propRows = append(s.propRows, make([]sim.V3, len(net.C.PIs)))
	}
	for k, vec := range prop {
		sim.XFillInto(s.propRows[k], vec, rng)
	}
	s.ff = FastFrame{V1: s.v1, V2: s.v2, S0: state, S1: s.s1, Prop: s.propRows[:len(prop)]}
	return &s.ff
}

// Values computes the fault-free two-frame value of every node.
func (s *Sim) Values(ff *FastFrame) []logic.Value {
	vals := s.net.LoadFrame8(ff.V1, ff.V2, ff.S0, ff.S1)
	s.net.Eval8(s.alg, vals, nil)
	return vals
}

// Detect runs the phase-2/phase-3 analysis for one applied test and
// returns the set of delay faults the test detects robustly. skip filters
// faults that need no further simulation (already classified); it may be
// nil. Candidates are confirmed by the word-parallel credit path
// (ConfirmBatch, 64 candidates per machine word); the verdicts — and
// with them the returned fault list — are bit-identical to the scalar
// reference path DetectScalar.
func (s *Sim) Detect(ff *FastFrame, skip func(faults.Delay) bool) []faults.Delay {
	return s.detect(ff, skip, true)
}

// DetectScalar is the scalar reference path: identical analysis, but
// every candidate is confirmed by an individual Confirm call. It exists
// as the oracle for the differential tests and benchmarks of the batched
// path.
func (s *Sim) DetectScalar(ff *FastFrame, skip func(faults.Delay) bool) []faults.Delay {
	return s.detect(ff, skip, false)
}

func (s *Sim) detect(ff *FastFrame, skip func(faults.Delay) bool, batched bool) []faults.Delay {
	vals := s.Values(ff)

	// Phase 2 (FAUSIM): which PPOs with a potential fault effect are
	// observable at a PO through the propagation frames? Its good replay
	// serves the batched confirmation below as well.
	goodS2 := make([]sim.V3, len(s.net.C.DFFs))
	nonSteady := make([]bool, len(s.net.C.DFFs))
	ppos := s.net.C.PPOs()
	for i, ppo := range ppos {
		goodS2[i] = sim.V3(vals[ppo].Final())
		nonSteady[i] = !vals[ppo].Steady()
	}
	goods := s.fs.GoodReplay(goodS2, ff.Prop)
	obsPPO := s.fs.ObservablePPOs(goods, nonSteady)

	// Phase 3 (TDsim): critical path tracing from the POs and from the
	// observable PPOs, then exact confirmation per candidate. The skip
	// filter runs before confirmation in both paths, preserving the
	// candidate order, so scalar and batched confirmation see the same
	// list.
	cands := s.candidates(vals, obsPPO)
	if skip != nil {
		kept := cands[:0]
		for _, f := range cands {
			if !skip(f) {
				kept = append(kept, f)
			}
		}
		cands = kept
	}
	var detected []faults.Delay
	if batched {
		if cap(s.verdicts) < len(cands) {
			s.verdicts = make([]bool, len(cands))
		}
		out := s.verdicts[:len(cands)]
		s.confirmBatch(ff, vals, goods, cands, out)
		for i, f := range cands {
			if out[i] {
				detected = append(detected, f)
			}
		}
		return detected
	}
	for _, f := range cands {
		if s.Confirm(ff, vals, goodS2, f) {
			detected = append(detected, f)
		}
	}
	return detected
}

// ConfirmBatch runs Confirm's exact decision for every candidate, 64
// machines per word: one carry-rail evaluation of the fast frame per
// batch (see sim.EvalCarry64 for the encoding), the batched capture
// rule, and one 64-way dual-rail pair replay of the propagation frames
// for the machines observed only at a PPO, against the good replay from
// goodS2. out[i] receives the verdict for cands[i] and must hold at least
// len(cands) entries; every verdict is bit-identical to the
// corresponding scalar Confirm call (pinned by
// TestConfirmBatchMatchesScalar).
func (s *Sim) ConfirmBatch(ff *FastFrame, goodVals []logic.Value, goodS2 []sim.V3, cands []faults.Delay, out []bool) {
	s.confirmBatch(ff, goodVals, s.fs.GoodReplay(goodS2, ff.Prop), cands, out)
}

// confirmBatch is ConfirmBatch over a good replay the caller already
// holds, so Detect simulates the good machine over the propagation
// frames once for both phase 2 and phase 3.
func (s *Sim) confirmBatch(ff *FastFrame, goodVals []logic.Value, goods *fausim.Replay, cands []faults.Delay, out []bool) {
	for base := 0; base < len(cands); base += 64 {
		chunk := cands[base:]
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		s.injD.Reset()
		for b, f := range chunk {
			s.injD.Add(uint(b), f.Line, f.Type == faults.SlowToRise)
		}
		if s.fullEval {
			s.net.EvalCarry64(s.alg, goodVals, s.carry, s.injD)
		} else {
			// Event-driven: the carry rail is zero outside the union of
			// the 64 injection sites' fanout cones, so only those cones
			// are folded; s.carry keeps an all-zero baseline between
			// chunks (restored below).
			s.net.EvalCarry64Cone(s.alg, goodVals, s.carry, s.injD)
		}

		// Robust observation at a PO in the fast frame.
		var det sim.Word
		for _, po := range s.net.C.POs {
			det |= s.carry[po]
		}
		// Observation through the state register: machines whose effect
		// was captured at a PPO but missed every PO replay the
		// propagation frames with their corrupted captured state, exactly
		// Confirm's invalidation rule. Machines without an injection
		// never set a carry bit, so the tail bits of a short final chunk
		// stay silent.
		carried := s.net.NextStateCarry64(goodVals, s.carry, s.injD, s.faultyV)
		if !s.fullEval {
			// The carry rail is consumed; restore the all-zero baseline
			// before the replay below reuses the Net's overlay kernel.
			s.net.ResetCarry64(s.carry)
		}
		if need := carried &^ det; need != 0 {
			det |= s.fs.PairDiffBatch(goods, s.faultyV, nil, need)
		}
		for b := range chunk {
			out[base+b] = det&(sim.Word(1)<<uint(b)) != 0
		}
	}
}

// Confirm checks one fault exactly against the applied test: injection in
// the fast frame, direct PO observation, and otherwise replay of the
// propagation frames with the corrupted captured state. By default the
// faulty machine is derived from the good-machine values the caller
// already holds — one copy plus a selective trace of the fault site's
// fanout cone — instead of a full re-evaluation of the frame.
func (s *Sim) Confirm(ff *FastFrame, goodVals []logic.Value, goodS2 []sim.V3, f faults.Delay) bool {
	inj := &sim.InjectDelay{Line: f.Line, SlowToRise: f.Type == faults.SlowToRise}
	vals := s.vals8
	if s.fullEval {
		s.net.LoadFrame8Into(vals, ff.V1, ff.V2, ff.S0, ff.S1)
		s.net.Eval8(s.alg, vals, inj)
	} else {
		copy(vals, goodVals)
		s.net.Eval8Cone(s.alg, vals, inj)
	}

	// Robust observation at a PO in the fast frame.
	for _, po := range s.net.C.POs {
		if vals[po].Carrying() {
			return true
		}
	}
	// Observation through the state register: build the faulty captured
	// state (a carrying PPO captures its initial value at the fast edge;
	// fault-free signals settle) and replay the propagation frames with
	// the complete joint corruption. The replay sees every side effect of
	// the fault on the captured state, so a corrupted required value
	// invalidates the detection naturally, and effects captured at
	// several PPOs at once are judged together (a single-bit
	// observability analysis would wrongly reject them).
	carried := false
	faultyS2 := s.faultyS2[:len(goodS2)]
	next := s.next8
	s.net.NextState8Into(next, vals, inj)
	for i, w := range next {
		if w.Carrying() {
			faultyS2[i] = sim.V3(w.Initial())
			carried = true
		} else {
			faultyS2[i] = sim.V3(w.Final())
		}
	}
	if !carried || len(ff.Prop) == 0 {
		return false
	}
	frame, po := s.fs.PairDiff(goodS2, faultyS2, ff.Prop)
	return frame >= 0 && po >= 0
}

// candidates walks robust critical paths backwards from every observation
// point and then supplements the result with every other transitioning
// line in the observable input cones. The walk finds the single-path
// robust detections cheaply (the classic CPT result); the supplement
// covers multiple-path sensitization through reconvergent fanout, which
// single-path tracing provably misses (a late stem can delay an output
// even when no individual branch path is robust on its own). Every
// candidate is confirmed exactly afterwards, so over-generation is sound.
func (s *Sim) candidates(vals []logic.Value, obsPPO []bool) []faults.Delay {
	c := s.net.C
	seen := make(map[faults.Delay]bool)
	var out []faults.Delay
	add := func(l netlist.Line, v logic.Value) {
		var t faults.DelayType
		if v.Final() == 1 {
			t = faults.SlowToRise
		} else {
			t = faults.SlowToFall
		}
		f := faults.Delay{Line: l, Type: t}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}

	// The observable input cones.
	cone := make([]bool, len(c.Nodes))
	var mark func(id netlist.NodeID)
	mark = func(id netlist.NodeID) {
		if cone[id] {
			return
		}
		cone[id] = true
		for _, in := range c.Nodes[id].Fanin {
			mark(in)
		}
	}
	for _, po := range c.POs {
		mark(po)
	}
	for i, ppo := range c.PPOs() {
		if obsPPO[i] {
			mark(ppo)
		}
	}

	// Pass 1: robust single-path critical path tracing.
	visited := make(map[netlist.NodeID]bool)
	var trace func(id netlist.NodeID)
	trace = func(id netlist.NodeID) {
		if visited[id] {
			return
		}
		visited[id] = true
		v := vals[id]
		if !v.HasTransition() {
			return
		}
		add(netlist.Stem(id), v)
		node := &c.Nodes[id]
		if !node.Type.IsGate() {
			return
		}
		ins := make([]logic.Value, len(node.Fanin))
		for pos, in := range node.Fanin {
			ins[pos] = vals[in]
		}
		for pos, in := range node.Fanin {
			if !ins[pos].HasTransition() {
				continue
			}
			// The input lies on a robust path exactly when promoting it
			// to the fault-carrying value keeps the output carrying: the
			// algebra's side-input conditions decide.
			probe := append([]logic.Value(nil), ins...)
			probe[pos] = probe[pos].WithCarry()
			if !s.alg.Eval(node.Type, probe).Carrying() {
				continue
			}
			if c.GateFanout(in) >= 2 {
				add(netlist.Line{Node: in, Branch: s.net.BranchOf(id, pos)}, ins[pos])
			}
			trace(in)
		}
	}
	for _, po := range c.POs {
		trace(po)
	}
	for i, ppo := range c.PPOs() {
		if obsPPO[i] {
			trace(ppo)
		}
	}

	// Pass 2: all remaining transitioning lines in the cones.
	for i := range c.Nodes {
		id := netlist.NodeID(i)
		if !cone[id] || !vals[id].HasTransition() {
			continue
		}
		add(netlist.Stem(id), vals[id])
		if c.GateFanout(id) >= 2 {
			node := &c.Nodes[id]
			for b, consumer := range node.Fanout {
				if c.Nodes[consumer].Type != netlist.DFF && cone[consumer] {
					add(netlist.Line{Node: id, Branch: b}, vals[id])
				}
			}
		}
	}
	return out
}
