package tdgen

import (
	"math/rand"
	"slices"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
	"fogbuster/internal/testability"
)

// referenceFixpoint is the from-scratch implication the event-driven
// engine must reproduce: it resets every set from the generator's input
// assignment and re-sweeps the whole gate order, then every state-register
// coupling, until nothing changes. It returns the sets and the
// consistency verdict; the sets are only meaningful when the verdict is
// true, because a conflict stops the sweep.
func referenceFixpoint(g *Generator) ([]logic.Set, bool) {
	c := g.net.C
	l := g.fault.Line
	sets := make([]logic.Set, len(c.Nodes))
	for i := range c.Nodes {
		switch c.Nodes[i].Type {
		case netlist.Input, netlist.DFF:
			s := g.assign[i]
			if g.siteDrv && l.Node == netlist.NodeID(i) {
				s = g.siteMap(s)
			}
			sets[i] = s
		default:
			if g.inCone[i] {
				sets[i] = logic.FullSet
			} else {
				sets[i] = logic.PlainSet
			}
		}
	}
	readIn := func(id netlist.NodeID, pos int) logic.Set {
		in := c.Nodes[id].Fanin[pos]
		s := sets[in]
		if !l.IsStem() && in == l.Node && g.net.OnLine(l, id, pos) {
			s = g.siteMap(s)
		}
		return s
	}
	ppos := c.PPOs()
	for {
		changed := false
		for _, id := range c.GateOrder() {
			node := &c.Nodes[id]
			ins := make([]logic.Set, len(node.Fanin))
			for pos := range node.Fanin {
				ins[pos] = readIn(id, pos)
			}
			img := g.alg.EvalSet(node.Type, ins)
			if l.IsStem() && l.Node == id {
				img = g.siteMap(img)
			}
			img &= sets[id]
			if img != sets[id] {
				sets[id] = img
				changed = true
			}
			if img == logic.EmptySet {
				return sets, false
			}
		}
		for i, ppi := range c.DFFs {
			var inits [2]bool
			for _, v := range sets[ppos[i]].Values() {
				inits[v.Initial()] = true
			}
			newPPI := logic.EmptySet
			for _, v := range sets[ppi].Values() {
				if inits[v.Final()] {
					newPPI = newPPI.Add(v)
				}
			}
			if newPPI != sets[ppi] {
				changed = true
				sets[ppi] = newPPI
				if newPPI == logic.EmptySet {
					return sets, false
				}
			}
		}
		if !changed {
			break
		}
	}
	for _, po := range c.POs {
		if sets[po]&logic.CarrySet != 0 {
			return sets, true
		}
	}
	for _, ppo := range ppos {
		if sets[ppo]&logic.CarrySet != 0 {
			return sets, true
		}
	}
	return sets, false
}

// checkAgainstReference fails the test unless the generator's verdict and,
// when consistent, every node's set equal the from-scratch fixpoint of
// its current assignment.
func checkAgainstReference(t *testing.T, g *Generator, ok bool, where string) {
	t.Helper()
	want, wantOK := referenceFixpoint(g)
	if ok != wantOK {
		t.Fatalf("%s: event-driven verdict %v, reference %v", where, ok, wantOK)
	}
	if ok && !slices.Equal(g.sets, want) {
		for i := range want {
			if g.sets[i] != want[i] {
				t.Fatalf("%s: node %s holds %v, reference %v", where, g.net.C.Nodes[i].Name, g.sets[i], want[i])
			}
		}
	}
}

// TestFoundMatchesReferenceFixpoint: at every Found of every fault's full
// search tree (probe armed, resumed until terminal), each node's set
// equals the from-scratch fixpoint of the same assignment.
func TestFoundMatchesReferenceFixpoint(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386"} {
		for _, alg := range []*logic.Algebra{logic.Robust, logic.NonRobust} {
			searchTreeDigest(t, name, alg, func(g *Generator) {
				checkAgainstReference(t, g, true, name+"/"+alg.Name()+" "+g.fault.Name(g.net.C))
			})
		}
	}
}

// TestRandomDecisionsMatchReference drives the implication engine
// directly with random decisions and backtracks, well beyond what the
// guided search visits (conflicting states included), and compares every
// verdict and every consistent fixpoint with the from-scratch reference.
// Each backtrack must also restore the exact sets of the shallower
// decision.
func TestRandomDecisionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"s27", "s298", "s386", "s641"} {
		c := bench.ProfileByName(name).Circuit()
		net := sim.NewNet(c)
		meas := testability.Compute(c)
		all := faults.AllDelay(c)
		var g Generator
		for trial := 0; trial < 40; trial++ {
			f := all[rng.Intn(len(all))]
			alg := logic.Robust
			if trial%2 == 1 {
				alg = logic.NonRobust
			}
			g.Reset(net, f, meas, Options{Algebra: alg})
			where := name + "/" + alg.Name() + " " + f.Name(c)
			ok := g.base()
			checkAgainstReference(t, &g, ok, where+" base")
			if !ok {
				continue
			}
			type level struct {
				mark int
				node netlist.NodeID
				sets []logic.Set
			}
			var stack []level
			for step := 0; step < 60; step++ {
				if len(stack) > 0 && (!ok || rng.Intn(4) == 0) {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					g.undo(top.mark)
					g.assign[top.node] = logic.PIDomain
					if !slices.Equal(g.sets, top.sets) {
						t.Fatalf("%s step %d: undo did not restore the fixpoint", where, step)
					}
					ok = true
					continue
				}
				if !ok {
					break
				}
				in := g.inputs[rng.Intn(len(g.inputs))]
				if g.assign[in] != logic.PIDomain {
					continue
				}
				opts := piOneFirst
				if c.Nodes[in].Type == netlist.DFF {
					opts = ppiInit0First
				}
				stack = append(stack, level{len(g.imp.trail), in, slices.Clone(g.sets)})
				ok = g.apply(in, opts[rng.Intn(len(opts))])
				checkAgainstReference(t, &g, ok, where)
			}
		}
	}
}
