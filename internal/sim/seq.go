package sim

import "math/rand"

// Step is the observable result of one sequential frame.
type Step struct {
	Outputs []V3 // PO values, declaration order
	State   []V3 // next state (PPO values), DFF declaration order
}

// SeqSim3 simulates the sequential circuit for one frame per vector,
// starting from initState (nil means the all-X power-up state). It
// returns one Step per frame; the machine state after frame k is
// steps[k].State.
func (n *Net) SeqSim3(initState []V3, vectors [][]V3) []Step {
	state := initState
	steps := make([]Step, 0, len(vectors))
	for _, vec := range vectors {
		vals := n.LoadFrame(vec, state)
		n.Eval3(vals, nil)
		st := Step{Outputs: n.Outputs3(vals), State: n.NextState3(vals, nil)}
		steps = append(steps, st)
		state = st.State
	}
	return steps
}

// XFill replaces every X in the vector with a pseudo-random binary value,
// the paper's phase-1 treatment of don't-cares before fault simulation.
func XFill(vec []V3, rng *rand.Rand) []V3 {
	out := make([]V3, len(vec))
	XFillInto(out, vec, rng)
	return out
}

// XFillInto is XFill writing into a caller-owned buffer of len(vec);
// dst may be vec itself. The draws happen in index order, one per X.
func XFillInto(dst, vec []V3, rng *rand.Rand) {
	for i, v := range vec {
		if v == X {
			dst[i] = V3(rng.Intn(2))
		} else {
			dst[i] = v
		}
	}
}

// SplitMix64 is the splitmix64 finalizer: a bijective scramble in which
// every output bit depends on every input bit. It is the one mixing step
// behind the engine's derived seeds and probe streams; each caller keeps
// its own input mixing (a golden-ratio step per stream or index), so
// every derived stream is a pure function of its inputs.
func SplitMix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// KnownCount returns how many values in the vector are not X.
func KnownCount(vec []V3) int {
	n := 0
	for _, v := range vec {
		if v.Known() {
			n++
		}
	}
	return n
}
