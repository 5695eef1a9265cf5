// Package tdgen implements TDgen, the paper's local test pattern generator
// for robust gate delay faults (Section 3). It works on the two-frame
// model of the combinational block: the initial (slow clock) frame and the
// fast test frame are handled simultaneously by the eight-valued algebra
// of package logic.
//
// The search is a PODEM-style branch-and-bound that is complete: decisions
// are made only at primary and pseudo primary inputs, whose domain is
// {0,1,R,F}; implications are exact forward set images through the
// circuit, coupled across the state register by the paper's "truth table
// for the state register" (the PPI's final value equals the PPO's
// initial-frame value). A fault is proven locally untestable when the
// decision tree is exhausted, and aborted when the backtrack budget (100
// in the paper) runs out.
//
// The generator is resumable: after a successful test, Next may be called
// again to enumerate the next distinct local test. The combined engine
// uses this for the paper's "backtracking between these steps" when
// sequential propagation or initialization fails.
package tdgen

import (
	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
	"fogbuster/internal/testability"
)

// Status is the outcome of a Next call.
type Status uint8

const (
	// Found means a robust local test was generated.
	Found Status = iota
	// Untestable means the search space is exhausted: no (further) robust
	// local test exists for the fault.
	Untestable
	// Aborted means the backtrack budget was exceeded.
	Aborted
)

// String returns the paper's vocabulary for the status.
func (s Status) String() string {
	switch s {
	case Found:
		return "found"
	case Untestable:
		return "untestable"
	default:
		return "aborted"
	}
}

// Options configures a Generator.
type Options struct {
	// Algebra selects the fault model; nil means logic.Robust.
	Algebra *logic.Algebra
	// MaxBacktracks is the backtrack budget; 0 means the paper's 100.
	MaxBacktracks int
	// Probe enables decision probing: once the search has spent a few
	// backtracks, each decision's option order is re-ranked by sampled
	// lane-parallel simulation (see orderByProbe). ProbeSeed seeds the
	// deterministic sampling; ScalarProbe switches the scoring to the
	// per-lane scalar reference oracle, which computes bit-identical
	// scores one frame at a time.
	Probe       bool
	ScalarProbe bool
	ProbeSeed   int64
}

// Solution is one robust local test: the two PI vectors of the time-frame
// pair, the required state during the initial frame, and the observation
// point of the fault effect.
type Solution struct {
	// V1 and V2 are the PI vectors of the initial and test frame; X
	// entries are don't-cares.
	V1, V2 []sim.V3
	// State0 is the state required during the initial frame (the init
	// state the synchronization phase must reach); X entries are
	// don't-cares.
	State0 []sim.V3
	// ObservePO is the PO index where the effect is observable, or -1.
	ObservePO int
	// ObservePPO is the FF index whose D input captures the effect at the
	// fast clock edge, or -1. Exactly one of the two observation fields
	// is set; a PO observation is preferred.
	ObservePPO int
	// PPOFinal is the state knowledge handed to the sequential engine for
	// the propagation phase, one value per FF: a known bit for PPOs the
	// robust model lets TDgen specify, D/D' at the faulty PPO, and X for
	// the paper's unjustifiable don't-cares (fixed but unknown values).
	PPOFinal []sim.V5
	// Sets are the final value sets per node, for diagnostics and tests.
	Sets []logic.Set
}

// Generator enumerates robust local tests for one delay fault.
type Generator struct {
	net   *sim.Net
	t     *sim.Topology
	alg   *logic.Algebra
	fault faults.Delay
	meas  *testability.Measures

	inputs   []netlist.NodeID // PIs then FFs: the decision variables
	assign   []logic.Set      // per node: current input domain (inputs only)
	sets     []logic.Set      // per node: value sets of the current fixpoint
	inCone   []bool           // node may carry the fault effect
	siteDrv  bool             // fault site is a stem on a PI/PPI (no driving gate)
	siteGate netlist.NodeID   // gate whose image is site-mapped (stem fault), or None
	siteEdge int32            // flat fanin edge of a branch fault, or -1
	ppoOfFF  []netlist.NodeID // D-driver node per FF
	maxBack  int
	nBack    int
	stack    []decision
	started  bool // the base fixpoint has been computed
	ok       bool // the current fixpoint is consistent (see settle)
	lastGood bool // last Next returned Found; resume must first backtrack
	dead     bool // search exhausted or aborted

	imp implier

	// Decision scratch: gate input sets for backtraceWant, and the
	// epoch-stamped visited marks of pickConeInput.
	ins   []logic.Set
	visit []uint32
	epoch uint32

	probe       bool
	scalarProbe bool
	probeSeed   int64
	probeEvents int
	ps          *probeScratch
}

// decision is one branch point of the search. For a primary input the
// options are the four singleton values {0},{1},{R},{F}: both frame values
// are freely applied. For a pseudo primary input only the initial-frame
// bit is controllable (it will be synchronized); the options are the two
// init-halves of the domain, {0,R} and {1,F}, and the final value is tied
// to the PPO by the state-register coupling. mark is the trail length
// before the decision was applied: undoing to it restores the fixpoint of
// the shallower decisions.
type decision struct {
	node    netlist.NodeID
	options [4]logic.Set
	n       int
	next    int
	mark    int
}

// Decision option orders. PI orders are value preferences; PPI orders pick
// the initial-frame bit.
var (
	piOneFirst  = []logic.Set{logic.S(logic.One), logic.S(logic.Zero), logic.S(logic.Rise), logic.S(logic.Fall)}
	piZeroFirst = []logic.Set{logic.S(logic.Zero), logic.S(logic.One), logic.S(logic.Fall), logic.S(logic.Rise)}

	ppiInit0First = []logic.Set{logic.S(logic.Zero, logic.Rise), logic.S(logic.One, logic.Fall)}
	ppiInit1First = []logic.Set{logic.S(logic.One, logic.Fall), logic.S(logic.Zero, logic.Rise)}
)

// New prepares a generator for the fault. The testability measures may be
// shared across faults of the same circuit; nil computes them on demand.
func New(net *sim.Net, f faults.Delay, meas *testability.Measures, opts Options) *Generator {
	g := new(Generator)
	g.Reset(net, f, meas, opts)
	return g
}

// Reset re-targets the generator at a new fault, as New does, but keeps
// its per-circuit buffers when net is the one it was built on, so a
// worker generating fault after fault allocates them once. Solutions
// returned before the reset stay valid; the search state does not.
func (g *Generator) Reset(net *sim.Net, f faults.Delay, meas *testability.Measures, opts Options) {
	c := net.C
	alg := opts.Algebra
	if alg == nil {
		alg = logic.Robust
	}
	if meas == nil {
		meas = testability.Compute(c)
	}
	maxBack := opts.MaxBacktracks
	if maxBack == 0 {
		maxBack = 100
	}
	if g.net != net {
		n := len(c.Nodes)
		*g = Generator{
			net:     net,
			t:       net.T,
			assign:  make([]logic.Set, n),
			sets:    make([]logic.Set, n),
			inCone:  make([]bool, n),
			ppoOfFF: c.PPOs(),
			ins:     make([]logic.Set, net.T.MaxFanin),
			visit:   make([]uint32, n),
			imp:     newImplier(net.T),
		}
		g.inputs = append(append(g.inputs, c.PIs...), c.DFFs...)
	}
	g.alg, g.fault, g.meas, g.maxBack = alg, f, meas, maxBack
	g.probe, g.scalarProbe, g.probeSeed = opts.Probe, opts.ScalarProbe, opts.ProbeSeed
	g.nBack, g.probeEvents = 0, 0
	g.stack = g.stack[:0]
	g.started, g.ok, g.lastGood, g.dead = false, false, false, false
	for _, in := range g.inputs {
		g.assign[in] = logic.PIDomain
	}
	l := f.Line
	st := c.Nodes[l.Node].Type
	g.siteDrv = l.IsStem() && (st == netlist.Input || st == netlist.DFF)
	g.siteGate, g.siteEdge = netlist.None, -1
	switch {
	case l.IsStem() && !g.siteDrv:
		g.siteGate = l.Node
	case !l.IsStem():
		_, e := g.t.BranchEdge(l.Node, l.Branch)
		g.siteEdge = int32(e)
	}
	g.computeCone()
}

// computeCone marks every node whose value may carry the fault effect:
// the forward closure of the site connection.
func (g *Generator) computeCone() {
	c := g.net.C
	clear(g.inCone)
	var mark func(id netlist.NodeID)
	mark = func(id netlist.NodeID) {
		if g.inCone[id] {
			return
		}
		g.inCone[id] = true
		for _, f := range c.Nodes[id].Fanout {
			if c.Nodes[f].Type != netlist.DFF {
				mark(f)
			}
		}
	}
	l := g.fault.Line
	if l.IsStem() {
		mark(l.Node)
		return
	}
	// Branch fault: only the branch's consumer cone carries; the stem
	// itself stays plain.
	consumer := c.Nodes[l.Node].Fanout[l.Branch]
	if c.Nodes[consumer].Type != netlist.DFF {
		mark(consumer)
	}
}

// siteMap converts the clean transition into the fault-carrying value, the
// paper's rule applied only at the fault location.
func (g *Generator) siteMap(s logic.Set) logic.Set {
	if g.fault.Type == faults.SlowToRise {
		if s.Has(logic.Rise) {
			return s.Del(logic.Rise).Add(logic.RiseC)
		}
		return s
	}
	if s.Has(logic.Fall) {
		return s.Del(logic.Fall).Add(logic.FallC)
	}
	return s
}

// readIn returns the value set presented to input position pos of node id,
// applying the site conversion on the faulty branch.
func (g *Generator) readIn(id netlist.NodeID, pos int) logic.Set {
	e := g.t.FaninOff[id] + int32(pos)
	s := g.sets[g.t.Fanin[e]]
	if e == g.siteEdge {
		s = g.siteMap(s)
	}
	return s
}

// observation returns the achieved observation point, preferring POs:
// (poIndex, -1), (-1, ffIndex), or (-1, -1) when no output is guaranteed
// to carry the effect yet.
func (g *Generator) observation() (int, int) {
	for i, po := range g.net.C.POs {
		if v, ok := g.sets[po].Singleton(); ok && v.Carrying() {
			return i, -1
		}
	}
	for i, ppo := range g.ppoOfFF {
		if v, ok := g.sets[ppo].Singleton(); ok && v.Carrying() {
			return -1, i
		}
	}
	return -1, -1
}
