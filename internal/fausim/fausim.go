// Package fausim implements FAUSIM, the sequential fault simulator
// integrated in SEMILET (paper Section 5, phases 1 and 2): good machine
// simulation of a test sequence, and stuck-at-style observability analysis
// of the propagation phase, where a fault effect captured at a PPO at the
// end of the fast frame is treated as a state difference that must reach a
// primary output under slow, fault-free clocking.
//
// The propagation-phase questions are pair replays against one good
// replay (GoodReplay): PairDiff resolves one good/faulty state pair,
// PairDiffBatch 64 of them in one pass of the 64-way dual-rail simulator
// (one bit per machine, exact three-valued semantics), and the phase-2
// analysis ObservablePPOs is a loop of PairDiffBatch calls, one machine
// per flipped state bit. StuckCoverage packs 64 stuck-at machines per
// pass the same way. Per-Sim scratch buffers make the passes
// allocation-free, so a Sim must not be shared between goroutines; build
// one per worker.
package fausim

import (
	"math/rand"
	"sort"

	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// Sim wraps a circuit view for sequence-level simulation.
type Sim struct {
	net *sim.Net

	// fullEval forces the full levelized walks instead of the
	// event-driven selective-trace paths (the reference oracle). The
	// stuck-at batch simulator always walks fully: its 64 machines carry
	// injections everywhere, so there is no shared fault-free baseline.
	fullEval bool

	// Reusable 64-way scratch (lazily built): one dual-rail frame, one
	// injector, and the dual-rail state rails carried between frames.
	frame64            *sim.Frame64
	inj64              *sim.Inject64
	stateV, stateK     []sim.Word
	scratchV, scratchK []sim.Word
	flipV, flipK       []sim.Word // ObservablePPOs' faulty rails

	// The good replay's buffers (GoodReplay).
	replay      Replay
	replayState []sim.V3

	// Scalar scratch of the event-driven paths: the good and faulty
	// frame values and the states carried between frames.
	gv3, fv3       []sim.V3
	gstate, fstate []sim.V3
	seeds          []netlist.NodeID
}

// New builds a simulator for the circuit.
func New(net *sim.Net) *Sim { return &Sim{net: net} }

// Net returns the underlying circuit view.
func (s *Sim) Net() *sim.Net { return s.net }

// SetFullEval selects between the event-driven selective-trace paths
// (default) and the full levelized reference walks. Call it before the
// first simulation.
func (s *Sim) SetFullEval(on bool) { s.fullEval = on }

// scratch64 returns the lazily-built 64-way buffers.
func (s *Sim) scratch64() (*sim.Frame64, *sim.Inject64) {
	if s.frame64 == nil {
		s.frame64 = s.net.NewFrame64()
		s.inj64 = s.net.NewInject64()
		n := len(s.net.C.DFFs)
		s.stateV = make([]sim.Word, n)
		s.stateK = make([]sim.Word, n)
		s.scratchV = make([]sim.Word, n)
		s.scratchK = make([]sim.Word, n)
		s.flipV = make([]sim.Word, n)
		s.flipK = make([]sim.Word, n)
	}
	return s.frame64, s.inj64
}

// scratchScalar returns the lazily-built scalar frame buffers of the
// event-driven paths.
func (s *Sim) scratchScalar() ([]sim.V3, []sim.V3) {
	if s.gv3 == nil {
		s.gv3 = make([]sim.V3, len(s.net.C.Nodes))
		s.fv3 = make([]sim.V3, len(s.net.C.Nodes))
		s.gstate = make([]sim.V3, len(s.net.C.DFFs))
		s.fstate = make([]sim.V3, len(s.net.C.DFFs))
	}
	return s.gv3, s.fv3
}

// FillSequence replaces every X in every vector with a pseudo-random bit,
// the paper's phase-1 treatment of don't-cares left by test generation.
func FillSequence(vectors [][]sim.V3, rng *rand.Rand) [][]sim.V3 {
	out := make([][]sim.V3, len(vectors))
	for i, vec := range vectors {
		out[i] = sim.XFill(vec, rng)
	}
	return out
}

// Replay is the good machine's trace over a propagation sequence: the
// starting state, the vectors and the complete node values of every
// frame, the baseline the batched pair simulation compares against (and,
// on the event-driven path, overlays). It lives on buffers the Sim owns,
// aliases the caller's state and vectors, and stays valid until the
// Sim's next GoodReplay call.
type Replay struct {
	init    []sim.V3
	vectors [][]sim.V3
	vals    [][]sim.V3 // per frame: every node's value; may hold spare frames
}

// GoodReplay simulates the good machine over the vectors from initState
// (nil for power-up) and returns the per-frame trace.
func (s *Sim) GoodReplay(initState []sim.V3, vectors [][]sim.V3) *Replay {
	c := s.net.C
	r := &s.replay
	r.init, r.vectors = initState, vectors
	for len(r.vals) < len(vectors) {
		r.vals = append(r.vals, make([]sim.V3, len(c.Nodes)))
	}
	if s.replayState == nil {
		s.replayState = make([]sim.V3, len(c.DFFs))
	}
	state := initState
	for fi, vec := range vectors {
		vals := r.vals[fi]
		s.net.LoadFrameInto(vals, vec, state)
		s.net.Eval3(vals, nil)
		state = s.replayState
		for i, ff := range c.DFFs {
			state[i] = vals[c.Nodes[ff].Fanin[0]]
		}
	}
	return r
}

// PairDiff simulates the good and faulty machines (differing only in their
// starting states) over the vectors and returns the first frame and PO
// index where they provably differ, or (-1, -1). The machine logic is
// fault free in both runs: under the slow clock the delay fault cannot
// occur, exactly the paper's propagation-phase model. The scan returns on
// the first provable difference; later POs and frames are never evaluated.
// By default the faulty machine is a selective trace over the good one:
// each frame copies the good values and re-evaluates only the cones of
// the state bits that still differ, and the replay stops as soon as the
// two states coincide (no later frame could distinguish them).
func (s *Sim) PairDiff(goodState, faultyState []sim.V3, vectors [][]sim.V3) (int, int) {
	if s.fullEval {
		g, f := goodState, faultyState
		for frame, vec := range vectors {
			gv := s.net.LoadFrame(vec, g)
			s.net.Eval3(gv, nil)
			fv := s.net.LoadFrame(vec, f)
			s.net.Eval3(fv, nil)
			for i, po := range s.net.C.POs {
				a, b := gv[po], fv[po]
				if a.Known() && b.Known() && a != b {
					return frame, i
				}
			}
			g = s.net.NextState3(gv, nil)
			f = s.net.NextState3(fv, nil)
		}
		return -1, -1
	}
	gv, fv := s.scratchScalar()
	c := s.net.C
	g := append(s.gstate[:0], goodState...)
	f := append(s.fstate[:0], faultyState...)
	for frame, vec := range vectors {
		s.net.LoadFrameInto(gv, vec, g)
		s.net.Eval3(gv, nil)
		copy(fv, gv)
		seeds := s.seeds[:0]
		for i, ff := range c.DFFs {
			if f[i] != g[i] {
				fv[ff] = f[i]
				seeds = append(seeds, ff)
			}
		}
		s.seeds = seeds
		if len(seeds) == 0 {
			return -1, -1
		}
		s.net.Eval3Cone(fv, seeds)
		for i, po := range c.POs {
			a, b := gv[po], fv[po]
			if a.Known() && b.Known() && a != b {
				return frame, i
			}
		}
		for i, ff := range c.DFFs {
			d := c.Nodes[ff].Fanin[0]
			g[i], f[i] = gv[d], fv[d]
		}
	}
	return -1, -1
}

// PairDiffBatch resolves up to 64 good/faulty state pairs in one replay
// of the propagation frames: machine k starts from the faulty state
// whose flip-flop i value is bit k of faultyV[i], known where bit k of
// faultyK[i] is set (nil faultyK: every bit known), and is compared
// frame by frame against the good replay over the same vectors. live
// selects the machines to resolve; the returned word marks the machines
// with a provable good/faulty PO difference in some frame — per machine
// exactly the PairDiff verdict (frame >= 0), because the dual-rail
// evaluation is bit-exact against the scalar three-valued simulation and
// a once-detected machine stays detected. The frame loop stops as soon
// as every live machine is resolved.
//
// By default each frame evaluates only the dual-rail overlay of the
// state bits that still diverge from the good machine, and the loop
// exits as soon as every machine's state has collapsed onto the good
// one.
func (s *Sim) PairDiffBatch(goods *Replay, faultyV, faultyK []sim.Word, live sim.Word) sim.Word {
	frame, _ := s.scratch64()
	net := s.net
	stateV, stateK := s.stateV, s.stateK
	copy(stateV, faultyV)
	if faultyK == nil {
		for i := range stateK {
			stateK[i] = sim.AllOnes
		}
	} else {
		copy(stateK, faultyK)
	}
	event := !s.fullEval
	var detected sim.Word
	for fi, vec := range goods.vectors {
		base := goods.vals[fi]
		if event {
			seeded := false
			for i, ff := range net.C.DFFs {
				bv, bk := sim.Broadcast64(base[ff])
				if stateV[i] != bv || stateK[i] != bk {
					net.Overlay64Set(frame, ff, stateV[i], stateK[i])
					seeded = true
				}
			}
			if !seeded {
				// Every machine's state coincides with the good
				// machine's: no later frame can distinguish them.
				return detected
			}
			net.Eval64DROverlay(frame, base)
		} else {
			net.LoadFrame64DR(frame, vec, nil)
			for i, ff := range net.C.DFFs {
				frame.V[ff], frame.K[ff] = stateV[i], stateK[i]
			}
			net.Eval64DR(frame, nil)
		}
		for _, po := range net.C.POs {
			if event && !net.Overlay64Marked(po) {
				continue // identical to the good machine: no provable diff
			}
			good := base[po]
			if !good.Known() {
				continue
			}
			gw, _ := sim.Broadcast64(good)
			diff := (frame.V[po] ^ gw) & frame.K[po] & live
			if diff == 0 {
				continue
			}
			detected |= diff
			live &^= diff
			if live == 0 {
				if event {
					net.Overlay64Reset()
				}
				return detected
			}
		}
		if event {
			for i, ff := range net.C.DFFs {
				d := net.C.Nodes[ff].Fanin[0]
				if net.Overlay64Marked(d) {
					s.scratchV[i], s.scratchK[i] = frame.V[d], frame.K[d]
				} else {
					s.scratchV[i], s.scratchK[i] = sim.Broadcast64(base[d])
				}
			}
			net.Overlay64Reset()
		} else {
			net.NextState64DR(frame, nil, s.scratchV, s.scratchK)
		}
		stateV, stateK = s.scratchV, s.scratchK
		s.scratchV, s.scratchK = s.stateV, s.stateK
		s.stateV, s.stateK = stateV, stateK
	}
	return detected
}

// ObservablePPOs performs the paper's phase-2 analysis over the good
// replay of the propagation vectors: for every flip-flop index whose
// captured value could carry a fault effect (nonSteady) and is known in
// the replay's starting state, a D is injected by flipping that state
// bit; the result marks the PPOs whose effects reach a primary output.
// The fault effect exists only at the observation point in the fast
// frame — later frames are fault free — which is exactly how FAUSIM
// treats it.
//
// Each batch of up to 64 candidate flips is one PairDiffBatch, one
// machine per flip, so the analysis costs a single pair replay of the
// propagation frames per batch instead of one per flip-flop.
func (s *Sim) ObservablePPOs(goods *Replay, nonSteady []bool) []bool {
	good := goods.init
	obs := make([]bool, len(good))
	var cand []int
	for i, v := range good {
		if nonSteady[i] && v.Known() {
			cand = append(cand, i)
		}
	}
	s.scratch64()
	fv, fk := s.flipV, s.flipK
	for len(cand) > 0 {
		batch := cand
		if len(batch) > 64 {
			batch = batch[:64]
		}
		cand = cand[len(batch):]
		for i, v := range good {
			fv[i], fk[i] = sim.Broadcast64(v)
		}
		var live sim.Word
		for b, i := range batch {
			fv[i] ^= sim.Word(1) << uint(b)
			live |= sim.Word(1) << uint(b)
		}
		det := s.PairDiffBatch(goods, fv, fk, live)
		for b, i := range batch {
			obs[i] = det&(sim.Word(1)<<uint(b)) != 0
		}
	}
	return obs
}

// stuck64 is one packed stuck-at fault instance.
type stuck64 struct {
	line netlist.Line
	val  sim.V3
}

// StuckCoverage fault-simulates a sequence against a set of stuck-at
// faults by pair simulation from power-up, returning which are detected.
// It is used by the standalone static-fault flow and the examples.
//
// The faults run 64 machines per word through the dual-rail simulator: one
// good-machine replay is shared by all batches, each faulty machine drops
// out of its batch on the first provable PO difference, and a batch whose
// machines are all detected stops before the frame loop ends.
func (s *Sim) StuckCoverage(vectors [][]sim.V3, lines []netlist.Line) map[netlist.Line][2]bool {
	out := make(map[netlist.Line][2]bool, len(lines))
	goods := s.GoodReplay(nil, vectors)

	all := make([]stuck64, 0, 2*len(lines))
	for _, l := range lines {
		all = append(all, stuck64{l, sim.Lo}, stuck64{l, sim.Hi})
	}
	for len(all) > 0 {
		batch := all
		if len(batch) > 64 {
			batch = batch[:64]
		}
		all = all[len(batch):]
		detected := s.stuckBatch(goods, batch)
		for b, f := range batch {
			det := out[f.line]
			if detected&(1<<uint(b)) != 0 {
				det[f.val] = true
			}
			out[f.line] = det
		}
	}
	return out
}

// Detection pairs one line with its stuck-at detection flags, the
// flattened form of one StuckCoverage entry. Det is indexed by the stuck
// value: Det[0] is stuck-at-0, Det[1] is stuck-at-1.
type Detection struct {
	Line netlist.Line
	Det  [2]bool
}

// SortedDetections flattens a StuckCoverage result into deterministic
// (Node, Branch) order, so reports, tests and heuristics never iterate
// the Go map directly.
func SortedDetections(cov map[netlist.Line][2]bool) []Detection {
	out := make([]Detection, 0, len(cov))
	for l, det := range cov {
		out = append(out, Detection{Line: l, Det: det}) //lint:allow determinism sorted into (Node, Branch) order below before return
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line.Node != out[j].Line.Node {
			return out[i].Line.Node < out[j].Line.Node
		}
		return out[i].Line.Branch < out[j].Line.Branch
	})
	return out
}

// stuckBatch pair-simulates up to 64 stuck-at machines against the
// precomputed good replay and returns the detected machine mask.
func (s *Sim) stuckBatch(goods *Replay, batch []stuck64) sim.Word {
	frame, inj := s.scratch64()
	inj.Reset()
	live := sim.Word(0)
	for b, f := range batch {
		inj.Add(uint(b), f.line, f.val)
		live |= sim.Word(1) << uint(b)
	}
	stateV, stateK := s.stateV, s.stateK
	for i := range stateV {
		stateV[i], stateK[i] = 0, 0 // power-up: all X
	}
	detected := sim.Word(0)
	for fi, vec := range goods.vectors {
		s.net.LoadFrame64DR(frame, vec, nil)
		for i, ff := range s.net.C.DFFs {
			frame.V[ff], frame.K[ff] = stateV[i], stateK[i]
		}
		s.net.Eval64DR(frame, inj)
		for _, po := range s.net.C.POs {
			good := goods.vals[fi][po]
			if !good.Known() {
				continue
			}
			gw, _ := sim.Broadcast64(good)
			diff := (frame.V[po] ^ gw) & frame.K[po] & live
			if diff == 0 {
				continue
			}
			detected |= diff
			live &^= diff
			if live == 0 {
				return detected
			}
		}
		s.net.NextState64DR(frame, inj, s.scratchV, s.scratchK)
		stateV, stateK = s.scratchV, s.scratchK
		s.scratchV, s.scratchK = s.stateV, s.stateK
		s.stateV, s.stateK = stateV, stateK
	}
	return detected
}
