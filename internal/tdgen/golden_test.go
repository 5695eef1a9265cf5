package tdgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/faults"
	"fogbuster/internal/logic"
	"fogbuster/internal/sim"
	"fogbuster/internal/testability"
)

// searchTreeGolden pins the complete search tree of every fault: the
// digest covers each Next call's status and backtrack count and, on
// Found, the whole solution (vectors, state, observation, PPO handoff and
// the per-node sets), with every generator resumed until it terminates.
// The probe is armed with a per-fault seed, as in the engine, so the
// reordered decisions past the probe threshold are pinned too. Any
// change to implication, decision order or backtracking moves a digest.
var searchTreeGolden = map[string]string{
	"s27/robust":      "e43e4161e98c0bbdff09e436cebeb993e0a95d96339f4ab60240ef74d611f163",
	"s27/non-robust":  "ddf202b7dfde17e9cae7570d95df98ae2dfba66253bb1c4d7e6565d3a43c7527",
	"s298/robust":     "cbef8920f35e70b5f91439d947ef8789656a98690e1c3efb05e148864f5abd27",
	"s298/non-robust": "2dfc1f5d6286047e99975434f4031ce0c56a95946d7a5ce4f6c406c026e0f329",
	"s386/robust":     "8faf15a7e2d9ead8de6f56834b525938d9d527d36a9a004216e1a55e6e745afc",
	"s386/non-robust": "7ecc1a3bb38ea803f7c05d4507e2894c370d6ee7e2db0e00c3c581952a9873ab",
	"s641/robust":     "bc4f22228973df38944e30e5ae52a3cf2fb68d8edea8ae248e1d14ca73465fbe",
	"s641/non-robust": "873731b3a3b9609aef674c15487ba0522ae8d930e9d531f1efb10807d6fd007c",
}

// writeSolution feeds one solution into the digest.
func writeSolution(h hash.Hash, sol *Solution) {
	var b []byte
	for _, v := range sol.V1 {
		b = append(b, byte(v))
	}
	for _, v := range sol.V2 {
		b = append(b, byte(v))
	}
	for _, v := range sol.State0 {
		b = append(b, byte(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(sol.ObservePO)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(sol.ObservePPO)))
	for _, v := range sol.PPOFinal {
		b = append(b, byte(v))
	}
	for _, s := range sol.Sets {
		b = append(b, byte(s))
	}
	h.Write(b)
}

// searchTreeDigest runs every fault of the circuit to its terminal status
// and returns the digest of the whole Next sequence. check, when set, is
// called after every Found with the generator still positioned on it.
func searchTreeDigest(t *testing.T, name string, alg *logic.Algebra, check func(*Generator)) string {
	t.Helper()
	c := bench.ProfileByName(name).Circuit()
	net := sim.NewNet(c)
	meas := testability.Compute(c)
	h := sha256.New()
	for fi, f := range faults.AllDelay(c) {
		g := New(net, f, meas, Options{Algebra: alg, Probe: true, ProbeSeed: int64(fi)*1000003 + 7})
		for {
			sol, st := g.Next()
			var b []byte
			b = binary.LittleEndian.AppendUint32(b, uint32(fi))
			b = append(b, byte(st))
			b = binary.LittleEndian.AppendUint32(b, uint32(g.Backtracks()))
			h.Write(b)
			if st != Found {
				break
			}
			writeSolution(h, sol)
			if check != nil {
				check(g)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSearchTreeGolden pins every fault's full search tree on s27, s298,
// s386 and s641 under both algebras.
func TestSearchTreeGolden(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386", "s641"} {
		for _, alg := range []*logic.Algebra{logic.Robust, logic.NonRobust} {
			key := name + "/" + alg.Name()
			got := searchTreeDigest(t, name, alg, nil)
			if want := searchTreeGolden[key]; got != want {
				t.Errorf("%s: search-tree digest %s, want %s", key, got, want)
			}
		}
	}
}
