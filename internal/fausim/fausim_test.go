package fausim

import (
	"math/rand"
	"slices"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

func TestFillSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := [][]sim.V3{{sim.X, sim.Hi}, {sim.Lo, sim.X}}
	out := FillSequence(in, rng)
	if out[0][1] != sim.Hi || out[1][0] != sim.Lo {
		t.Fatal("known values changed")
	}
	for _, vec := range out {
		for _, v := range vec {
			if !v.Known() {
				t.Fatal("X survived the fill")
			}
		}
	}
	if in[0][0] != sim.X {
		t.Fatal("input mutated")
	}
}

// TestSortedDetections pins the deterministic accessor: the flattened
// result is in (Node, Branch) order and agrees entry-for-entry with the
// underlying map.
func TestSortedDetections(t *testing.T) {
	c := bench.NewS27()
	net := sim.NewNet(c)
	s := New(net)
	rng := rand.New(rand.NewSource(7))
	vectors := make([][]sim.V3, 12)
	for i := range vectors {
		vec := make([]sim.V3, len(c.PIs))
		for j := range vec {
			vec[j] = sim.V3(rng.Intn(2))
		}
		vectors[i] = vec
	}
	cov := s.StuckCoverage(vectors, c.Lines())
	flat := SortedDetections(cov)
	if len(flat) != len(cov) {
		t.Fatalf("flattened %d entries, map has %d", len(flat), len(cov))
	}
	for i, d := range flat {
		if got, ok := cov[d.Line]; !ok || got != [2]bool(d.Det) {
			t.Errorf("entry %d (%v) disagrees with the map", i, d.Line)
		}
		if i == 0 {
			continue
		}
		prev := flat[i-1].Line
		if d.Line.Node < prev.Node || (d.Line.Node == prev.Node && d.Line.Branch <= prev.Branch) {
			t.Fatalf("entries out of order: %v after %v", d.Line, prev)
		}
	}
}

// TestPairDiffShiftRegister: a single flipped state bit in a shift
// register surfaces at the output after exactly the remaining stages.
func TestPairDiffShiftRegister(t *testing.T) {
	c := bench.ShiftRegister(4)
	s := New(sim.NewNet(c))
	good := []sim.V3{sim.Lo, sim.Lo, sim.Lo, sim.Lo}
	faulty := append([]sim.V3(nil), good...)
	faulty[0] = sim.Hi // flipped at the first stage: 3 more shifts to the PO
	vectors := [][]sim.V3{{sim.Lo}, {sim.Lo}, {sim.Lo}, {sim.Lo}}
	frame, po := s.PairDiff(good, faulty, vectors)
	if frame != 3 || po != 0 {
		t.Fatalf("diff at frame %d po %d, want frame 3 po 0", frame, po)
	}
	// Identical states never differ.
	if f, _ := s.PairDiff(good, good, vectors); f != -1 {
		t.Fatal("identical states reported different")
	}
}

// TestPairDiffBatchMatchesScalar cross-checks the 64-way pair replay
// against the scalar PairDiff verdict: 64 random fully specified faulty
// states against one shared good state, over random propagation vectors,
// on a sequential bench circuit.
func TestPairDiffBatchMatchesScalar(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	net := sim.NewNet(c)
	s := New(net)
	rng := rand.New(rand.NewSource(11))
	bits := func(n int) []sim.V3 {
		out := make([]sim.V3, n)
		for i := range out {
			out[i] = sim.V3(rng.Intn(2))
		}
		return out
	}
	for trial := 0; trial < 50; trial++ {
		good := bits(len(c.DFFs))
		var vectors [][]sim.V3
		for k := 0; k < 1+rng.Intn(4); k++ {
			vectors = append(vectors, bits(len(c.PIs)))
		}
		faulty := make([][]sim.V3, 64)
		faultyV := make([]sim.Word, len(c.DFFs))
		for m := 0; m < 64; m++ {
			faulty[m] = bits(len(c.DFFs))
			for i, v := range faulty[m] {
				if v == sim.Hi {
					faultyV[i] |= sim.Word(1) << uint(m)
				}
			}
		}
		goods := s.GoodReplay(good, vectors)
		detected := s.PairDiffBatch(goods, faultyV, nil, sim.AllOnes)
		for m := 0; m < 64; m++ {
			frame, po := s.PairDiff(good, faulty[m], vectors)
			want := frame >= 0 && po >= 0
			if got := detected&(sim.Word(1)<<uint(m)) != 0; got != want {
				t.Fatalf("trial %d machine %d: batched %v, scalar %v (frame %d po %d)",
					trial, m, got, want, frame, po)
			}
		}
	}
}

// TestObservablePPOs: in the shift register every stage is observable
// given enough frames, and none is observable with too few.
func TestObservablePPOs(t *testing.T) {
	c := bench.ShiftRegister(4)
	s := New(sim.NewNet(c))
	good := []sim.V3{sim.Lo, sim.Lo, sim.Lo, sim.Lo}
	nonSteady := []bool{true, true, true, true}
	long := [][]sim.V3{{sim.Lo}, {sim.Lo}, {sim.Lo}, {sim.Lo}}
	obs := s.ObservablePPOs(s.GoodReplay(good, long), nonSteady)
	for i, o := range obs {
		if !o {
			t.Errorf("stage %d not observable with 4 frames", i)
		}
	}
	short := [][]sim.V3{{sim.Lo}}
	obs = s.ObservablePPOs(s.GoodReplay(good, short), nonSteady)
	if obs[0] || obs[1] || obs[2] {
		t.Error("early stages observable with one frame")
	}
	if !obs[3] {
		t.Error("last stage must be observable with one frame")
	}
	// The nonSteady mask suppresses analysis.
	none := s.ObservablePPOs(s.GoodReplay(good, long), []bool{false, false, false, false})
	for i, o := range none {
		if o {
			t.Errorf("stage %d observable despite steady mask", i)
		}
	}
}

// TestStuckCoverage: exhaustive input sequences detect the input stem
// stuck-at faults of c17... c17 has no DFFs, so use the shift register
// plus a gate.
func TestStuckCoverage(t *testing.T) {
	c := bench.ShiftRegister(2)
	s := New(sim.NewNet(c))
	vectors := [][]sim.V3{{sim.Hi}, {sim.Lo}, {sim.Hi}, {sim.Lo}, {sim.Hi}}
	si := c.LookupID("si")
	cov := s.StuckCoverage(vectors, []netlist.Line{netlist.Stem(si)})
	det := cov[netlist.Stem(si)]
	if !det[0] || !det[1] {
		t.Fatalf("serial-input stuck faults not detected: %v", det)
	}
}

// TestGoodReplayMatchesSeqSim: GoodReplay is SeqSim3 by another name; pin
// the equivalence of the kept frame values on a random workload.
func TestGoodReplayMatchesSeqSim(t *testing.T) {
	c := bench.ProfileByName("s298").Circuit()
	net := sim.NewNet(c)
	s := New(net)
	rng := rand.New(rand.NewSource(9))
	var vectors [][]sim.V3
	for k := 0; k < 8; k++ {
		v := make([]sim.V3, len(c.PIs))
		for i := range v {
			v[i] = sim.V3(rng.Intn(2))
		}
		vectors = append(vectors, v)
	}
	a := s.GoodReplay(nil, vectors)
	b := net.SeqSim3(nil, vectors)
	if len(a.vals) < len(b) {
		t.Fatal("length mismatch")
	}
	for i, st := range b {
		if got := net.NextState3(a.vals[i], nil); !slices.Equal(got, st.State) {
			t.Fatalf("state mismatch at frame %d", i)
		}
		if got := net.Outputs3(a.vals[i]); !slices.Equal(got, st.Outputs) {
			t.Fatalf("output mismatch at frame %d", i)
		}
	}
	if s.Net() != net {
		t.Fatal("Net accessor broken")
	}
}
