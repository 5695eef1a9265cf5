package tdgen

import (
	"math/bits"

	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// probeAfter is the backtrack count after which decision probing kicks
// in: the static SCOAP-guided order is kept while it is working, and the
// sampled scores only pay for themselves on faults the static order is
// already failing.
const probeAfter = 4

// sm64 is a splitmix64 stream, the per-lane sampling PRNG of the
// decision probe. It is deliberately tiny and allocation-free: every
// probe event draws its 64 lane streams from (ProbeSeed, event, lane),
// so the sampling — and with it the whole search — is a pure function of
// the fault, independent of worker count and of the batched/scalar
// evaluation mode.
type sm64 struct{ s uint64 }

func seedSM64(seed int64, stream uint64) sm64 {
	return sm64{s: uint64(seed) + 0x9E3779B97F4A7C15*(stream+1)}
}

func (p *sm64) next() uint64 {
	p.s += 0x9E3779B97F4A7C15
	return sim.SplitMix64(p.s)
}

// probeScratch holds the decision-probe buffers, built on first use so
// generators that never probe (short searches, unit tests) pay nothing,
// and kept across Reset on the same Net.
type probeScratch struct {
	lanes   [64]sm64
	samples []logic.Value // per input × 64 lanes, input-major
	rail    *sim.Rail64   // the Net's shared rail
	goodW   []sim.Word    // NextStateFill64 capture scratch
	faultyW []sim.Word
	vals8   []logic.Value // scalar oracle frame, built on its first use
	next8   []logic.Value
}

func (g *Generator) probeBuf() *probeScratch {
	if g.ps == nil {
		c := g.net.C
		g.ps = &probeScratch{
			samples: make([]logic.Value, 64*len(g.inputs)),
			rail:    g.net.SharedRail(),
			goodW:   make([]sim.Word, len(c.DFFs)),
			faultyW: make([]sim.Word, len(c.DFFs)),
		}
	}
	return g.ps
}

// orderByProbe scores the candidate option order of a decision by
// sampled simulation and reorders them in place, most-promising-first. Each
// option gets 64/len(options) lanes; every lane samples one concrete
// eight-valued input frame (the decision input from the option's value
// set, every other input from its current propagated set), evaluates it
// with the fault injected, and counts as a hit when the effect reaches a
// PO or is captured at a PPO. The reorder is a pure heuristic — options
// are never dropped, so Untestable completeness is untouched — and runs
// only after probeAfter backtracks (the static order wins when it wins).
//
// The default evaluation is one lane-parallel rail walk (sim.EvalFill64);
// the scalar oracle (Options.ScalarProbe) evaluates the identical 64
// sampled frames one Eval8 at a time. The sampling is shared, the
// per-lane verdicts are bit-identical (TestProbeScalarMatchesBatched),
// so the two modes order every decision the same way.
func (g *Generator) orderByProbe(node netlist.NodeID, options []logic.Set) {
	if !g.probe || g.nBack < probeAfter || len(options) < 2 {
		return
	}
	event := g.probeEvents
	g.probeEvents++
	ps := g.probeBuf()
	for k := range ps.lanes {
		ps.lanes[k] = seedSM64(g.probeSeed, uint64(event)<<6|uint64(k))
	}
	nOpt := len(options)
	lanesPer := 64 / nOpt

	// Sample every lane's frame, input-major so batched and scalar paths
	// read the identical values. Lane k of the decision input draws from
	// option k/lanesPer's value set narrowed by the propagated set (the
	// raw option when the intersection is empty — the lane then scores
	// zero through simulation rather than through a special case).
	var vv [logic.NumValues]logic.Value
	decode := func(s logic.Set) int {
		n := 0
		for v := logic.Value(0); v < logic.NumValues; v++ {
			if s.Has(v) {
				vv[n] = v
				n++
			}
		}
		return n
	}
	for ii, in := range g.inputs {
		row := ps.samples[ii*64 : ii*64+64]
		if in != node {
			set := g.sets[in]
			if n := decode(set); n > 0 {
				for k := 0; k < 64; k++ {
					row[k] = vv[ps.lanes[k].next()%uint64(n)]
				}
			} else {
				for k := 0; k < 64; k++ {
					row[k] = logic.Zero
				}
			}
			continue
		}
		for o := 0; o < nOpt; o++ {
			set := options[o] & g.sets[node]
			if set == logic.EmptySet {
				set = options[o]
			}
			n := decode(set)
			for k := o * lanesPer; k < (o+1)*lanesPer; k++ {
				row[k] = vv[ps.lanes[k].next()%uint64(n)]
			}
		}
	}

	live := sim.Word(1)<<uint(nOpt*lanesPer) - 1
	var obs sim.Word
	if g.scalarProbe {
		obs = g.probeScalar(ps, nOpt*lanesPer)
	} else {
		obs = g.probeBatched(ps)
	}
	obs &= live

	// Stable insertion sort, descending by hit count: ties keep the
	// static order, so the probe can only ever override it with evidence.
	var scores [8]int
	for o := 0; o < nOpt; o++ {
		mask := (sim.Word(1)<<uint(lanesPer) - 1) << uint(o*lanesPer)
		scores[o] = bits.OnesCount64(obs & mask)
	}
	for i := 1; i < nOpt; i++ {
		for j := i; j > 0 && scores[j] > scores[j-1]; j-- {
			scores[j], scores[j-1] = scores[j-1], scores[j]
			options[j], options[j-1] = options[j-1], options[j]
		}
	}
}

// probeInject is the injection applied to every probe frame. The sampled
// input values already carry the site conversion where the sets do (a
// stem fault on a PI/PPI), and InjectDelay.apply leaves carrying values
// unchanged, so injecting is idempotent there and required everywhere
// else.
func (g *Generator) probeInject() *sim.InjectDelay {
	return &sim.InjectDelay{Line: g.fault.Line, SlowToRise: g.fault.Type == faults.SlowToRise}
}

// probeBatched evaluates all 64 sampled frames in one rail walk and
// returns the observable-lane word.
func (g *Generator) probeBatched(ps *probeScratch) sim.Word {
	r := ps.rail
	for ii, in := range g.inputs {
		row := ps.samples[ii*64 : ii*64+64]
		var i, f, h, c sim.Word
		for k, v := range row {
			bit := sim.Word(1) << uint(k)
			if v.Initial() == 1 {
				i |= bit
			}
			if v.Final() == 1 {
				f |= bit
			}
			if v == logic.ZeroH || v == logic.OneH {
				h |= bit
			}
			if v.Carrying() {
				c |= bit
			}
		}
		r.I[in], r.F[in], r.H[in], r.C[in] = i, f, h, c
	}
	inj := g.probeInject()
	g.net.EvalFill64(g.alg, r, inj)
	return g.net.ObserveFill64(r) | g.net.NextStateFill64(r, inj, ps.goodW, ps.faultyW)
}

// probeScalar is the reference oracle: the identical sampled frames, one
// scalar eight-valued walk per lane.
func (g *Generator) probeScalar(ps *probeScratch, lanes int) sim.Word {
	if ps.vals8 == nil {
		ps.vals8 = make([]logic.Value, len(g.net.C.Nodes))
		ps.next8 = make([]logic.Value, len(g.net.C.DFFs))
	}
	inj := g.probeInject()
	var obs sim.Word
	for k := 0; k < lanes; k++ {
		for ii, in := range g.inputs {
			ps.vals8[in] = ps.samples[ii*64+k]
		}
		g.net.Eval8(g.alg, ps.vals8, inj)
		hit := false
		for _, po := range g.net.C.POs {
			if ps.vals8[po].Carrying() {
				hit = true
				break
			}
		}
		if !hit {
			g.net.NextState8Into(ps.next8, ps.vals8, inj)
			for _, v := range ps.next8 {
				if v.Carrying() {
					hit = true
					break
				}
			}
		}
		if hit {
			obs |= sim.Word(1) << uint(k)
		}
	}
	return obs
}
