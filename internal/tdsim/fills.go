package tdsim

import (
	"fogbuster/internal/faults"
	"fogbuster/internal/sim"
)

// FillBatch packs 64 fully specified X-fill completions of one candidate
// test, one lane per word bit: bit k of V1[i] is lane k's initial-frame
// value of PI i, and so on. Prop holds the propagation vectors that
// follow the fast frame, per frame per PI. Unlike ConfirmBatch (64
// faults of one frame), every lane here is a different frame of the SAME
// fault — the batched X-fill trial of the generation phase.
type FillBatch struct {
	V1, V2 []sim.Word   // per PI: the two fast-frame vectors
	S0, S1 []sim.Word   // per DFF: initial state, latched test state
	Prop   [][]sim.Word // per propagation frame, per PI
}

// fillScratch holds the lane-parallel confirmation buffers, built lazily
// so Sims that never batch fills pay nothing.
type fillScratch struct {
	rail           *sim.Rail64
	goodW, faultyW []sim.Word // fast-frame captured states, per DFF
	valsG, valsF   []sim.Word // replay frames, per node
	stateG, stateF []sim.Word // replay states, per DFF
	nextG, nextF   []sim.Word
}

func (s *Sim) fills() *fillScratch {
	if s.fill == nil {
		n := len(s.net.C.Nodes)
		d := len(s.net.C.DFFs)
		s.fill = &fillScratch{
			rail:  s.net.SharedRail(),
			goodW: make([]sim.Word, d), faultyW: make([]sim.Word, d),
			valsG: make([]sim.Word, n), valsF: make([]sim.Word, n),
			stateG: make([]sim.Word, d), stateF: make([]sim.Word, d),
			nextG: make([]sim.Word, d), nextF: make([]sim.Word, d),
		}
	}
	return s.fill
}

// ConfirmFills runs Confirm's exact decision for all 64 fill lanes of
// one fault in a single pass and returns the word of detecting lanes:
// one rail evaluation of the fast frame (sim.EvalFill64; the fault-free
// values are the plain rails, the faulty divergence lives in the carry
// rail), the lane-parallel capture rule, and — for the lanes whose
// effect was captured at a PPO but missed every PO — a 64-lane pure
// two-valued pair replay of the propagation frames (every input is
// binary after X-fill, so the three-valued simulation of the scalar
// PairDiff degenerates to Eval64, which is exact there). Bit k of the
// result equals the scalar Confirm verdict on lane k's FastFrame,
// pinned by TestConfirmFillsMatchesScalar.
func (s *Sim) ConfirmFills(fb *FillBatch, f faults.Delay) sim.Word {
	fs := s.fills()
	net := s.net
	c := net.C
	inj := &sim.InjectDelay{Line: f.Line, SlowToRise: f.Type == faults.SlowToRise}

	r := fs.rail
	for i, pi := range c.PIs {
		r.SetInput(pi, fb.V1[i], fb.V2[i])
	}
	for i, ff := range c.DFFs {
		r.SetInput(ff, fb.S0[i], fb.S1[i])
	}
	net.EvalFill64(s.alg, r, inj)

	// Robust observation at a PO in the fast frame.
	det := net.ObserveFill64(r)

	// Capture rule: a carrying PPO captures its initial value at the fast
	// edge, a fault-free one its final value.
	carried := net.NextStateFill64(r, inj, fs.goodW, fs.faultyW)
	need := carried &^ det
	if need == 0 || len(fb.Prop) == 0 {
		return det
	}

	// Pair replay under slow fault-free clocking, 64 lanes per pass. A
	// lane whose faulty state has collapsed onto the good one can never
	// diff later (fault-free replay is deterministic), mirroring the
	// scalar PairDiff early exit.
	t := net.T
	copy(fs.stateG, fs.goodW)
	copy(fs.stateF, fs.faultyW)
	for _, vec := range fb.Prop {
		var diverged sim.Word
		for i := range c.DFFs {
			diverged |= fs.stateG[i] ^ fs.stateF[i]
		}
		need &= diverged
		if need == 0 {
			break
		}
		for i, pi := range c.PIs {
			fs.valsG[pi] = vec[i]
			fs.valsF[pi] = vec[i]
		}
		for i, ff := range c.DFFs {
			fs.valsG[ff] = fs.stateG[i]
			fs.valsF[ff] = fs.stateF[i]
		}
		net.Eval64(fs.valsG)
		net.Eval64(fs.valsF)
		for _, po := range c.POs {
			diff := (fs.valsG[po] ^ fs.valsF[po]) & need
			det |= diff
			need &^= diff
		}
		if need == 0 {
			break
		}
		for i, ff := range c.DFFs {
			d := t.Fanin[t.FaninOff[ff]]
			fs.stateG[i] = fs.valsG[d]
			fs.stateF[i] = fs.valsF[d]
		}
	}
	return det
}
