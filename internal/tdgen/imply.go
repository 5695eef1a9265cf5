package tdgen

import (
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// The implication engine. Every line holds a value set; a gate's set is
// the forward image of its input sets intersected with its own, and the
// state register couples each PPI's final value to its PPO's
// initial-frame value. Both rules only ever narrow a set, so the search
// state is the greatest fixpoint below the input assignment, and that
// fixpoint does not depend on the order the rules fire in. The engine
// therefore works by events: the base fixpoint of a fault is computed
// once, a decision narrows one input and re-evaluates only the gates
// downstream of a change, level by level, and every narrowing is recorded
// on a trail so a backtrack restores the previous fixpoint exactly.

// trailEntry records the set a node held before a narrowing.
type trailEntry struct {
	node netlist.NodeID
	old  logic.Set
}

// implier is the event-driven propagation state. Between calls the
// worklist and the dirty-FF list are empty.
type implier struct {
	buckets [][]netlist.NodeID // per level: gates queued for re-evaluation
	queued  []bool
	lo, hi  int32 // range of levels that may hold queued gates

	dirty   []netlist.NodeID // DFFs whose coupling must be re-applied
	isDirty []bool

	trail []trailEntry
}

func newImplier(t *sim.Topology) implier {
	return implier{
		buckets: make([][]netlist.NodeID, t.MaxLevel+1),
		queued:  make([]bool, t.NumNodes()),
		isDirty: make([]bool, t.NumNodes()),
		lo:      t.MaxLevel + 1,
		hi:      -1,
	}
}

// sched queues gate id for re-evaluation at its level.
func (g *Generator) sched(id netlist.NodeID) {
	m := &g.imp
	if m.queued[id] {
		return
	}
	m.queued[id] = true
	l := g.t.Level[id]
	m.buckets[l] = append(m.buckets[l], id)
	m.lo, m.hi = min(m.lo, l), max(m.hi, l)
}

// markFF queues the state-register coupling of DFF node ff.
func (g *Generator) markFF(ff netlist.NodeID) {
	m := &g.imp
	if !m.isDirty[ff] {
		m.isDirty[ff] = true
		m.dirty = append(m.dirty, ff)
	}
}

// narrow replaces the set of node id by s, a subset of it, recording the
// old set on the trail and queueing every reader: gates for
// re-evaluation, DFFs (whose D input id drives) for coupling. It reports
// false when s is empty.
func (g *Generator) narrow(id netlist.NodeID, s logic.Set) bool {
	old := g.sets[id]
	if s == old {
		return true
	}
	g.imp.trail = append(g.imp.trail, trailEntry{id, old})
	g.sets[id] = s
	if s == logic.EmptySet {
		return false
	}
	t := g.t
	for k := t.FanoutOff[id]; k < t.FanoutOff[id+1]; k++ {
		if r := t.FanoutNode[k]; t.Types[r] == netlist.DFF {
			g.markFF(r)
		} else {
			g.sched(r)
		}
	}
	return true
}

// image is the forward image of gate id's current input sets, with the
// fault-site conversion on the faulty branch or at the faulty stem.
func (g *Generator) image(id netlist.NodeID) logic.Set {
	t := g.t
	ins := g.ins[:0]
	// readIn's edge read, written out: this loop is the engine's hot path.
	for e := t.FaninOff[id]; e < t.FaninOff[id+1]; e++ {
		s := g.sets[t.Fanin[e]]
		if e == g.siteEdge {
			s = g.siteMap(s)
		}
		ins = append(ins, s)
	}
	img := g.alg.EvalSet(t.Types[id], ins)
	if id == g.siteGate {
		img = g.siteMap(img)
	}
	return img
}

// couple applies the state register to DFF node ff: the PPI's final value
// is the PPO's initial-frame value. The narrowing is strictly
// one-directional (PPO image -> PPI): the latched value is whatever the
// circuit produces in the initial frame, so the PPO set must remain a
// pure forward image. Pinning a PPI's final value therefore requires the
// search to justify the PPO's initial-frame value through ordinary input
// decisions; anything else would assume state the synchronizable machine
// cannot deliver.
func (g *Generator) couple(ff netlist.NodeID) bool {
	ppo := g.sets[g.t.Fanin[g.t.FaninOff[ff]]]
	allowed := logic.EmptySet
	if ppo&logic.InitZeroSet != 0 {
		allowed |= logic.FinalZeroSet
	}
	if ppo&logic.InitOneSet != 0 {
		allowed |= logic.FinalOneSet
	}
	return g.narrow(ff, g.sets[ff]&allowed)
}

// settle runs the queued gates, lowest level first, and the dirty
// couplings until neither has work left, then reports consistency: false
// when some set became empty or the fault effect can no longer reach any
// observable output. A conflict abandons the remaining work; the sets are
// then meaningless until the caller undoes the trail.
func (g *Generator) settle() bool {
	m := &g.imp
	for {
		// A gate's readers sit at strictly higher levels, so one ascending
		// pass empties the buckets; hi may grow while it runs.
		for l := m.lo; l <= m.hi; l++ {
			b := m.buckets[l]
			for _, id := range b {
				m.queued[id] = false
				if !g.narrow(id, g.image(id)&g.sets[id]) {
					g.abandon()
					return false
				}
			}
			m.buckets[l] = b[:0]
		}
		m.lo, m.hi = int32(len(m.buckets)), -1
		if len(m.dirty) == 0 {
			break
		}
		for len(m.dirty) > 0 {
			ff := m.dirty[len(m.dirty)-1]
			m.dirty = m.dirty[:len(m.dirty)-1]
			m.isDirty[ff] = false
			if !g.couple(ff) {
				g.abandon()
				return false
			}
		}
	}
	return g.observable()
}

// abandon empties the worklist and the dirty-FF list after a conflict.
func (g *Generator) abandon() {
	m := &g.imp
	for l := m.lo; l <= m.hi; l++ {
		for _, id := range m.buckets[l] {
			m.queued[id] = false
		}
		m.buckets[l] = m.buckets[l][:0]
	}
	m.lo, m.hi = int32(len(m.buckets)), -1
	for _, ff := range m.dirty {
		m.isDirty[ff] = false
	}
	m.dirty = m.dirty[:0]
}

// undo restores every set narrowed since the trail had length mark.
func (g *Generator) undo(mark int) {
	tr := g.imp.trail
	for i := len(tr) - 1; i >= mark; i-- {
		g.sets[tr[i].node] = tr[i].old
	}
	g.imp.trail = tr[:mark]
}

// base computes the fault's starting fixpoint: every input at its
// domain (site-mapped at a PI/PPI stem fault), every gate at the full
// set inside the fault cone and the plain set outside, all gates queued
// and all couplings dirty. It clears the trail: nothing undoes past it.
func (g *Generator) base() bool {
	c := g.net.C
	for i := range c.Nodes {
		id := netlist.NodeID(i)
		switch {
		case !g.t.Types[i].IsGate():
			g.sets[i] = g.inputSet(id, g.assign[i])
		case g.inCone[i]:
			g.sets[i] = logic.FullSet
		default:
			g.sets[i] = logic.PlainSet
		}
	}
	g.imp.trail = g.imp.trail[:0]
	for _, id := range g.t.Order {
		g.sched(id)
	}
	for _, ff := range c.DFFs {
		g.markFF(ff)
	}
	return g.settle()
}

// inputSet is the set an input presents for the assigned domain s: the
// fault-site conversion applies at a PI/PPI stem fault.
func (g *Generator) inputSet(id netlist.NodeID, s logic.Set) logic.Set {
	if g.siteDrv && g.fault.Line.Node == id {
		return g.siteMap(s)
	}
	return s
}

// apply assigns option opt to input node and settles the consequences.
// An empty narrowing queues nothing, so it needs no abandon.
func (g *Generator) apply(node netlist.NodeID, opt logic.Set) bool {
	g.assign[node] = opt
	return g.narrow(node, g.sets[node]&g.inputSet(node, opt)) && g.settle()
}

// observable is the X-path check: the effect must still be able to
// reach a PO or PPO.
func (g *Generator) observable() bool {
	for _, po := range g.net.C.POs {
		if g.sets[po]&logic.CarrySet != 0 {
			return true
		}
	}
	for _, ppo := range g.ppoOfFF {
		if g.sets[ppo]&logic.CarrySet != 0 {
			return true
		}
	}
	return false
}
