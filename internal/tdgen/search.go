package tdgen

import (
	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
	"fogbuster/internal/testability"
)

// Next returns the next distinct robust local test for the fault, or the
// terminal status. After Found, calling Next again resumes the search
// behind the last solution; Untestable then means every alternative has
// been enumerated. The backtrack budget spans all Next calls of one
// generator, matching the paper's per-fault limit.
func (g *Generator) Next() (*Solution, Status) {
	if g.dead {
		return nil, Untestable
	}
	if g.nBack >= g.maxBack {
		g.dead = true
		return nil, Aborted
	}
	if g.lastGood {
		// Resume past the previous solution.
		g.lastGood = false
		if !g.backtrack() {
			g.dead = true
			return nil, Untestable
		}
	}
	if !g.started {
		g.started = true
		g.ok = g.base()
	}
	for {
		if g.ok {
			if po, ppo := g.observation(); po >= 0 || ppo >= 0 {
				g.lastGood = true
				return g.extract(po, ppo), Found
			}
			// With nothing relevant left to assign the state fails
			// like a conflict.
			if node, options := g.decide(); node != netlist.None {
				g.push(node, options)
				continue
			}
		}
		if g.nBack >= g.maxBack {
			g.dead = true
			return nil, Aborted
		}
		if !g.backtrack() {
			g.dead = true
			return nil, Untestable
		}
	}
}

// Backtracks returns the number of backtracks spent so far.
func (g *Generator) Backtracks() int { return g.nBack }

// push opens a decision on node: its options, reordered by the probe
// against the current fixpoint, are tried in order, the first one now.
func (g *Generator) push(node netlist.NodeID, options []logic.Set) {
	g.stack = append(g.stack, decision{node: node, mark: len(g.imp.trail)})
	d := &g.stack[len(g.stack)-1]
	d.n = copy(d.options[:], options)
	g.orderByProbe(node, d.options[:d.n])
	g.ok = g.apply(node, d.options[0])
}

// backtrack advances the deepest decision with untried values, undoing
// deeper ones, and reports whether the search can continue.
func (g *Generator) backtrack() bool {
	for len(g.stack) > 0 {
		top := &g.stack[len(g.stack)-1]
		g.undo(top.mark)
		top.next++
		if top.next < top.n {
			g.nBack++
			g.ok = g.apply(top.node, top.options[top.next])
			return true
		}
		g.assign[top.node] = logic.PIDomain
		g.stack = g.stack[:len(g.stack)-1]
	}
	return false
}

// decide picks the next input to assign and its option order, guided by
// the current objective: activate the fault site first, then push the
// effect through the cheapest D-frontier gate toward an observable output.
// The value order comes from an eight-valued backtrace that carries the
// desired value set from the objective down to the input through the
// algebra's exact gate pruning.
func (g *Generator) decide() (netlist.NodeID, []logic.Set) {
	objective, want := g.objectiveNode()
	if objective != netlist.None {
		if node, order := g.backtraceWant(objective, want); node != netlist.None {
			return node, order
		}
		if node := g.pickConeInput(objective); node != netlist.None {
			return node, g.defaultOrder(node)
		}
	}
	// Fall back to any unassigned input so the search stays complete.
	for _, in := range g.inputs {
		if g.assign[in] == logic.PIDomain {
			return in, g.defaultOrder(in)
		}
	}
	return netlist.None, nil
}

// defaultOrder is the option order when no backtrace hint is available.
func (g *Generator) defaultOrder(node netlist.NodeID) []logic.Set {
	if g.net.C.Nodes[node].Type == netlist.DFF {
		if g.meas.CC0[node] <= g.meas.CC1[node] {
			return ppiInit0First
		}
		return ppiInit1First
	}
	if g.meas.CC1[node] <= g.meas.CC0[node] {
		return piOneFirst
	}
	return piZeroFirst
}

// backtraceWant descends from (node, want) through unpinned logic to an
// unassigned input, transforming the wanted value set at each gate with
// the exact pruning tables, and returns the input with an option order
// that tries want-compatible values first.
func (g *Generator) backtraceWant(node netlist.NodeID, want logic.Set) (netlist.NodeID, []logic.Set) {
	c := g.net.C
	for hop := 0; hop < len(c.Nodes)+2; hop++ {
		want &= g.sets[node]
		if want == logic.EmptySet {
			return netlist.None, nil
		}
		// Undo the fault-site conversion before interpreting the node.
		if g.fault.Line.IsStem() && g.fault.Line.Node == node {
			want = g.invSiteMap(want)
			if want == logic.EmptySet {
				return netlist.None, nil
			}
		}
		n := &c.Nodes[node]
		switch n.Type {
		case netlist.Input:
			if g.assign[node] != logic.PIDomain {
				return netlist.None, nil
			}
			return node, orderForWant(want, false)
		case netlist.DFF:
			if g.assign[node] != logic.PIDomain {
				return netlist.None, nil
			}
			return node, orderForWant(want, true)
		}
		// Transform the want through the gate: prune the current input
		// sets against it, then descend into the most promising fanin.
		ins := g.ins[:len(n.Fanin)]
		for pos := range n.Fanin {
			ins[pos] = g.readIn(node, pos)
		}
		if _, _, ok := g.alg.Prune(n.Type, ins, want); !ok {
			return netlist.None, nil
		}
		bestPos, bestCost := -1, testability.Inf*4
		for pos := range n.Fanin {
			cur := g.readIn(node, pos)
			if _, pinned := cur.Singleton(); pinned {
				continue
			}
			cost := g.meas.CC0[n.Fanin[pos]] + g.meas.CC1[n.Fanin[pos]]
			// Prefer fanins the objective actually constrains.
			if ins[pos] == cur {
				cost += testability.Inf / 2
			}
			if cost < bestCost {
				bestPos, bestCost = pos, cost
			}
		}
		if bestPos < 0 {
			return netlist.None, nil
		}
		nextWant := ins[bestPos]
		l := g.fault.Line
		if !l.IsStem() && n.Fanin[bestPos] == l.Node && g.net.OnLine(l, node, bestPos) {
			nextWant = g.invSiteMap(nextWant)
			if nextWant == logic.EmptySet {
				return netlist.None, nil
			}
		}
		node = n.Fanin[bestPos]
		want = nextWant
	}
	return netlist.None, nil
}

// invSiteMap undoes the fault-site conversion for a wanted set: asking for
// the carrying transition at the site means asking the driver for the
// clean transition.
func (g *Generator) invSiteMap(want logic.Set) logic.Set {
	if g.fault.Type == faults.SlowToRise {
		if want.Has(logic.RiseC) {
			want = want.Del(logic.RiseC).Add(logic.Rise)
		} else {
			want = want.Del(logic.Rise)
		}
		return want
	}
	if want.Has(logic.FallC) {
		want = want.Del(logic.FallC).Add(logic.Fall)
	} else {
		want = want.Del(logic.Fall)
	}
	return want
}

// orderForWant builds the option order for an input decision: options
// compatible with the wanted set first, cheapest-compatible leading.
func orderForWant(want logic.Set, isPPI bool) []logic.Set {
	if isPPI {
		if want&logic.InitOneSet != 0 && want&logic.InitZeroSet == 0 {
			return ppiInit1First
		}
		return ppiInit0First
	}
	return piWantOrders[want&logic.PIDomain]
}

// piWantOrders holds the PI option order for every wanted subset of the
// PI domain: the wanted values first, then the rest, each in the order
// 1, 0, R, F.
var piWantOrders = func() (t [logic.PIDomain + 1][]logic.Set) {
	for w := range t {
		want := logic.Set(w)
		var first, rest []logic.Set
		for _, v := range []logic.Value{logic.One, logic.Zero, logic.Rise, logic.Fall} {
			if want.Has(v) {
				first = append(first, logic.S(v))
			} else {
				rest = append(rest, logic.S(v))
			}
		}
		t[w] = append(first, rest...)
	}
	return t
}()

// objectiveNode returns the node the next decision should influence and
// the value set wanted there.
func (g *Generator) objectiveNode() (netlist.NodeID, logic.Set) {
	// Activation: the site's presented set must be pinned to the carrying
	// transition. For a stem fault the stored set is already converted;
	// for a branch fault the stem must be pinned to the clean transition.
	site := g.fault.Line.Node
	if v, ok := g.siteMap(g.sets[site]).Singleton(); !ok || !v.Carrying() {
		if g.fault.Line.IsStem() {
			if g.fault.Type == faults.SlowToRise {
				return site, logic.S(logic.RiseC)
			}
			return site, logic.S(logic.FallC)
		}
		if g.fault.Type == faults.SlowToRise {
			return site, logic.S(logic.Rise)
		}
		return site, logic.S(logic.Fall)
	}
	// D-frontier: a gate reading a pinned fault effect whose own output is
	// not pinned yet. Its side-input cones are the tightest useful
	// decision targets. Among frontier gates prefer the cheapest path to
	// an output.
	best, bestCost := netlist.None, testability.Inf+1
	c := g.net.C
	for _, id := range c.GateOrder() {
		if _, ok := g.sets[id].Singleton(); ok {
			continue
		}
		if g.sets[id]&logic.CarrySet == 0 {
			continue
		}
		node := &c.Nodes[id]
		for pos := range node.Fanin {
			if v, ok := g.readIn(id, pos).Singleton(); ok && v.Carrying() {
				if cost := g.meas.CO[id]; cost < bestCost {
					best, bestCost = id, cost
				}
				break
			}
		}
	}
	if best != netlist.None {
		return best, g.sets[best] & logic.CarrySet
	}
	// No pinned frontier: aim at the carrying-capable observable with the
	// cheapest observability.
	for _, po := range g.net.C.POs {
		if g.sets[po]&logic.CarrySet != 0 {
			if _, ok := g.sets[po].Singleton(); !ok {
				if cost := g.meas.CO[po]; cost < bestCost {
					best, bestCost = po, cost
				}
			}
		}
	}
	if best == netlist.None {
		for _, ppo := range g.ppoOfFF {
			if g.sets[ppo]&logic.CarrySet != 0 {
				if _, ok := g.sets[ppo].Singleton(); !ok {
					if cost := g.meas.CO[ppo]; cost < bestCost {
						best, bestCost = ppo, cost
					}
				}
			}
		}
	}
	if best == netlist.None {
		return netlist.None, logic.EmptySet
	}
	return best, g.sets[best] & logic.CarrySet
}

// pickConeInput returns the unassigned input in the transitive fanin cone
// of node (crossing the state register once) with the lowest SCOAP cost.
func (g *Generator) pickConeInput(node netlist.NodeID) netlist.NodeID {
	g.epoch++
	if g.epoch == 0 {
		clear(g.visit)
		g.epoch = 1
	}
	best, bestCost := netlist.None, int32(testability.Inf+1)
	g.coneWalk(node, 0, &best, &bestCost)
	return best
}

// coneWalk is pickConeInput's depth-first walk; g.visit[id] == g.epoch
// marks the nodes it has seen.
func (g *Generator) coneWalk(id netlist.NodeID, depth int, best *netlist.NodeID, bestCost *int32) {
	if g.visit[id] == g.epoch {
		return
	}
	g.visit[id] = g.epoch
	n := &g.net.C.Nodes[id]
	switch n.Type {
	case netlist.Input:
		if g.assign[id] == logic.PIDomain {
			if cost := g.meas.CC0[id] + g.meas.CC1[id]; cost < *bestCost {
				*best, *bestCost = id, cost
			}
		}
	case netlist.DFF:
		if g.assign[id] == logic.PIDomain {
			// PPIs are costlier decisions: they must be synchronized.
			if cost := g.meas.CC0[id] + g.meas.CC1[id] + 2*testability.Inf/4; cost < *bestCost {
				*best, *bestCost = id, cost
			}
		}
		// The PPI's final value is coupled to the PPO: influencing the
		// PPO influences the PPI. Cross the register once.
		if depth == 0 {
			g.coneWalk(n.Fanin[0], depth+1, best, bestCost)
		}
	default:
		for _, in := range n.Fanin {
			g.coneWalk(in, depth, best, bestCost)
		}
	}
}

// extract builds the Solution from the current sets.
func (g *Generator) extract(po, ppo int) *Solution {
	c := g.net.C
	sol := &Solution{
		V1:         make([]sim.V3, len(c.PIs)),
		V2:         make([]sim.V3, len(c.PIs)),
		State0:     make([]sim.V3, len(c.DFFs)),
		ObservePO:  po,
		ObservePPO: ppo,
		PPOFinal:   make([]sim.V5, len(c.DFFs)),
		Sets:       append([]logic.Set(nil), g.sets...),
	}
	for i, pi := range c.PIs {
		sol.V1[i], sol.V2[i] = framePair(g.sets[pi])
	}
	for i, ff := range c.DFFs {
		v1, _ := framePair(g.sets[ff])
		sol.State0[i] = v1
		sol.PPOFinal[i] = g.ppoHandoff(g.sets[g.ppoOfFF[i]])
	}
	return sol
}

// framePair maps a value set to per-frame binary values; X when the frame
// value is not uniform across the set.
func framePair(s logic.Set) (sim.V3, sim.V3) {
	return frameValue(s, logic.InitZeroSet, logic.InitOneSet), frameValue(s, logic.FinalZeroSet, logic.FinalOneSet)
}

// frameValue is Lo or Hi when the set's members agree on one frame value
// (selected by the masks of that frame), X otherwise.
func frameValue(s, zero, one logic.Set) sim.V3 {
	switch z, o := s&zero != 0, s&one != 0; {
	case o && !z:
		return sim.Hi
	case z && !o:
		return sim.Lo
	}
	return sim.X
}

// ppoHandoff maps a PPO value set to the state knowledge passed to the
// sequential engine. Under the robust model only a steady, hazard-free
// constant is specifiable (the paper's restriction); anything else is a
// fixed-but-unknown value, except the fault effect itself, which becomes
// D or D'. The non-robust relaxation assumes fault-free signals settle
// within the fast period, so any set with a uniform final value is known.
func (g *Generator) ppoHandoff(s logic.Set) sim.V5 {
	if v, ok := s.Singleton(); ok {
		switch v {
		case logic.Zero:
			return sim.Z5
		case logic.One:
			return sim.O5
		case logic.RiseC:
			return sim.D5 // good 1, faulty still 0 at the fast edge
		case logic.FallC:
			return sim.B5
		}
		if !g.alg.IsRobust() && !v.Carrying() {
			if v.Final() == 1 {
				return sim.O5
			}
			return sim.Z5
		}
		return sim.X5
	}
	if !g.alg.IsRobust() && s&logic.CarrySet == 0 {
		switch frameValue(s, logic.FinalZeroSet, logic.FinalOneSet) {
		case sim.Hi:
			return sim.O5
		case sim.Lo:
			return sim.Z5
		}
	}
	return sim.X5
}
