package fausim

import (
	"math/rand"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/sim"
)

// TestPairDiffEventMatchesFull: the selective-trace pair replay returns
// exactly the full walk's (frame, PO) verdict — including the early exit
// when the faulty state collapses onto the good one.
func TestPairDiffEventMatchesFull(t *testing.T) {
	for _, name := range []string{"s298", "s641"} {
		c := bench.ProfileByName(name).Circuit()
		evt := New(sim.NewNet(c))
		full := New(sim.NewNet(c))
		full.SetFullEval(true)
		rng := rand.New(rand.NewSource(21))
		bits := func(n int) []sim.V3 {
			out := make([]sim.V3, n)
			for i := range out {
				out[i] = sim.V3(rng.Intn(2))
			}
			return out
		}
		for trial := 0; trial < 40; trial++ {
			good := bits(len(c.DFFs))
			faulty := append([]sim.V3(nil), good...)
			for flips := 1 + rng.Intn(3); flips > 0; flips-- {
				i := rng.Intn(len(faulty))
				faulty[i] = 1 - faulty[i]
			}
			var vectors [][]sim.V3
			for k := 0; k < 1+rng.Intn(5); k++ {
				vectors = append(vectors, bits(len(c.PIs)))
			}
			ef, ep := evt.PairDiff(good, faulty, vectors)
			ff, fp := full.PairDiff(good, faulty, vectors)
			if ef != ff || ep != fp {
				t.Fatalf("%s trial %d: event (%d,%d), full (%d,%d)", name, trial, ef, ep, ff, fp)
			}
		}
	}
}

// TestPairDiffBatchEventMatchesFull: the overlay replay resolves the
// same detected-machine word as the full dual-rail walk, for random
// 64-machine batches over random propagation frames.
func TestPairDiffBatchEventMatchesFull(t *testing.T) {
	for _, name := range []string{"s298", "s1196"} {
		c := bench.ProfileByName(name).Circuit()
		evt := New(sim.NewNet(c))
		full := New(sim.NewNet(c))
		full.SetFullEval(true)
		rng := rand.New(rand.NewSource(22))
		bits := func(n int) []sim.V3 {
			out := make([]sim.V3, n)
			for i := range out {
				out[i] = sim.V3(rng.Intn(2))
			}
			return out
		}
		for trial := 0; trial < 25; trial++ {
			good := bits(len(c.DFFs))
			faultyV := make([]sim.Word, len(c.DFFs))
			for i, v := range good {
				base := sim.Word(0)
				if v == sim.Hi {
					base = sim.AllOnes
				}
				// Most machines stay near the good state: flip each FF for
				// a sparse random machine subset, the shape ConfirmBatch
				// produces.
				faultyV[i] = base ^ (sim.Word(rng.Uint64()) & sim.Word(rng.Uint64()) & sim.Word(rng.Uint64()))
			}
			var vectors [][]sim.V3
			for k := 0; k < 1+rng.Intn(4); k++ {
				vectors = append(vectors, bits(len(c.PIs)))
			}
			live := sim.Word(rng.Uint64()) | 1
			eg := evt.GoodReplay(good, vectors)
			fg := full.GoodReplay(good, vectors)
			ed := evt.PairDiffBatch(eg, faultyV, nil, live)
			fd := full.PairDiffBatch(fg, faultyV, nil, live)
			if ed != fd {
				t.Fatalf("%s trial %d: event %x, full %x", name, trial, ed, fd)
			}
		}
	}
}

// TestObservablePPOsEventMatchesFull: phase-2 observability verdicts are
// identical on both paths, over random states, nonSteady masks and
// propagation vectors (X entries included).
func TestObservablePPOsEventMatchesFull(t *testing.T) {
	for _, name := range []string{"s298", "s641"} {
		c := bench.ProfileByName(name).Circuit()
		evt := New(sim.NewNet(c))
		full := New(sim.NewNet(c))
		full.SetFullEval(true)
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 25; trial++ {
			good := make([]sim.V3, len(c.DFFs))
			nonSteady := make([]bool, len(c.DFFs))
			for i := range good {
				good[i] = sim.V3(rng.Intn(3)) // X entries exercise the skip
				nonSteady[i] = rng.Intn(4) != 0
			}
			var vectors [][]sim.V3
			for k := 0; k < 1+rng.Intn(4); k++ {
				vec := make([]sim.V3, len(c.PIs))
				for i := range vec {
					vec[i] = sim.V3(rng.Intn(3))
				}
				vectors = append(vectors, vec)
			}
			eo := evt.ObservablePPOs(evt.GoodReplay(good, vectors), nonSteady)
			fo := full.ObservablePPOs(full.GoodReplay(good, vectors), nonSteady)
			for i := range eo {
				if eo[i] != fo[i] {
					t.Fatalf("%s trial %d PPO %d: event %v, full %v", name, trial, i, eo[i], fo[i])
				}
			}
		}
	}
}
