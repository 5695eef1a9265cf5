package fausim

import (
	"math/rand"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// scalarStuckCoverage is the pre-batching reference implementation:
// pair simulation of one faulty machine at a time with Eval3.
func scalarStuckCoverage(net *sim.Net, vectors [][]sim.V3, lines []netlist.Line) map[netlist.Line][2]bool {
	out := make(map[netlist.Line][2]bool, len(lines))
	for _, l := range lines {
		var det [2]bool
		for v := 0; v < 2; v++ {
			inj := &sim.Inject3{Line: l, Value: sim.V3(v)}
			var g, f []sim.V3
			detected := false
			for _, vec := range vectors {
				gv := net.LoadFrame(vec, g)
				net.Eval3(gv, nil)
				fv := net.LoadFrame(vec, f)
				net.Eval3(fv, inj)
				for _, po := range net.C.POs {
					a, b := gv[po], fv[po]
					if a.Known() && b.Known() && a != b {
						detected = true
					}
				}
				if detected {
					break
				}
				g = net.NextState3(gv, nil)
				f = net.NextState3(fv, inj)
			}
			det[v] = detected
		}
		out[l] = det
	}
	return out
}

// TestStuckCoverageMatchesScalar cross-checks the 64-way batched
// StuckCoverage against the scalar reference over every stem and branch
// of a real benchmark, with don't-cares in the vectors so the dual-rail X
// semantics are on the line too. The fault count exceeds 64, so batch
// splitting is exercised as well.
func TestStuckCoverageMatchesScalar(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	net := sim.NewNet(c)
	s := New(net)
	rng := rand.New(rand.NewSource(5))

	var vectors [][]sim.V3
	for k := 0; k < 6; k++ {
		v := make([]sim.V3, len(c.PIs))
		for i := range v {
			v[i] = sim.V3(rng.Intn(3)) // includes X
		}
		vectors = append(vectors, v)
	}

	var lines []netlist.Line
	for i := range c.Nodes {
		id := netlist.NodeID(i)
		lines = append(lines, netlist.Stem(id))
		if c.GateFanout(id) >= 2 {
			for b := range c.Nodes[i].Fanout {
				lines = append(lines, netlist.Line{Node: id, Branch: b})
			}
		}
	}

	got := s.StuckCoverage(vectors, lines)
	want := scalarStuckCoverage(net, vectors, lines)
	if len(got) != len(want) {
		t.Fatalf("result size %d, want %d", len(got), len(want))
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("line %s: batched %v, scalar %v", c.LineName(l), got[l], w)
		}
	}
}

// TestObservablePPOsMatchesScalar cross-checks the batched observability
// analysis against per-flip PairDiff replays, on the event-driven and the
// full-eval paths. s15850 has more than 64 flip-flops, so its candidates
// split into several PairDiffBatch calls; the later rounds put X bits in
// the good state, which both skip candidates and ride along as unknown
// rails in every machine.
func TestObservablePPOsMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rounds int
	}{{"s298", 10}, {"s15850", 2}} {
		c := bench.ProfileByName(tc.name).Circuit()
		for _, fullEval := range []bool{false, true} {
			s := New(sim.NewNet(c))
			s.SetFullEval(fullEval)
			rng := rand.New(rand.NewSource(6))
			for round := 0; round < 2*tc.rounds; round++ {
				values := 2 // binary good state first, then X bits too
				if round >= tc.rounds {
					values = 3
				}
				good := make([]sim.V3, len(c.DFFs))
				nonSteady := make([]bool, len(c.DFFs))
				for i := range good {
					good[i] = sim.V3(rng.Intn(values))
					nonSteady[i] = rng.Intn(3) > 0
				}
				var vectors [][]sim.V3
				for k := 0; k < 4; k++ {
					v := make([]sim.V3, len(c.PIs))
					for i := range v {
						v[i] = sim.V3(rng.Intn(2))
					}
					vectors = append(vectors, v)
				}

				got := s.ObservablePPOs(s.GoodReplay(good, vectors), nonSteady)
				for i, ns := range nonSteady {
					want := false
					if ns && good[i].Known() {
						faulty := append([]sim.V3(nil), good...)
						faulty[i] = sim.Not3(faulty[i])
						frame, po := s.PairDiff(good, faulty, vectors)
						want = frame >= 0 && po >= 0
					}
					if got[i] != want {
						t.Errorf("%s fullEval=%v round %d ppo %d: batched %v, scalar %v", tc.name, fullEval, round, i, got[i], want)
					}
				}
			}
		}
	}
}
