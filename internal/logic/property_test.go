package logic

import (
	"testing"
	"testing/quick"

	"fogbuster/internal/netlist"
)

// TestSetMonotonicityProperty: the set transfer functions are monotone —
// growing an input set can only grow the image. TDgen's fixpoint
// propagation terminates and stays an upper bound because of this.
func TestSetMonotonicityProperty(t *testing.T) {
	f := func(a, aExtra, b uint8) bool {
		A, B := Set(a), Set(b)
		A2 := A | Set(aExtra)
		for _, alg := range []*Algebra{Robust, NonRobust} {
			if alg.setAnd[A][B]&^alg.setAnd[A2][B] != 0 {
				return false
			}
			if alg.setOr[A][B]&^alg.setOr[A2][B] != 0 {
				return false
			}
			if alg.setXor[A][B]&^alg.setXor[A2][B] != 0 {
				return false
			}
			if alg.NotSet(A)&^alg.NotSet(A2) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEvalSetSoundnessProperty: the image of singletons always lies inside
// the image of any supersets (pointwise soundness of EvalSet), across gate
// types and arities.
func TestEvalSetSoundnessProperty(t *testing.T) {
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	f := func(tSel uint8, raw [3]uint8, pick [3]uint8) bool {
		typ := types[int(tSel)%len(types)]
		sets := make([]Set, 3)
		vals := make([]Value, 3)
		for i := range sets {
			sets[i] = Set(raw[i])
			if sets[i] == EmptySet {
				sets[i] = FullSet
			}
			members := sets[i].Values()
			vals[i] = members[int(pick[i])%len(members)]
		}
		img := Robust.EvalSet(typ, sets)
		return img.Has(Robust.Eval(typ, vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPlainCarryInvariance pins the invariant the 64-way batched credit
// simulation is built on (internal/sim's carry-rail encoding): the plain
// part of every gate output is a function of the plain parts of the
// inputs alone — attaching the fault-effect flag to an input can set or
// clear the output's flag, but never changes its initial value, final
// value or hazard. Because of this, 64 delay fault machines over one
// fully specified two-frame situation share a single scalar value per
// node and differ only in a 64-bit carry word.
func TestPlainCarryInvariance(t *testing.T) {
	for _, alg := range []*Algebra{Robust, NonRobust} {
		for x := Value(0); x < NumValues; x++ {
			if plain := alg.Not(x).Plain(); plain != alg.Not(x.Plain()) {
				t.Errorf("%s: plain(not %s) = %s, want %s", alg.Name(), x, plain, alg.Not(x.Plain()))
			}
			for y := Value(0); y < NumValues; y++ {
				type op struct {
					name string
					f    func(a, b Value) Value
				}
				for _, o := range []op{{"and", alg.And}, {"or", alg.Or}, {"xor", alg.Xor}} {
					if plain := o.f(x, y).Plain(); plain != o.f(x.Plain(), y.Plain()) {
						t.Errorf("%s: plain(%s(%s,%s)) = %s, want %s",
							alg.Name(), o.name, x, y, plain, o.f(x.Plain(), y.Plain()))
					}
					// A surviving fault effect always sits on a transition
					// value, so the carry rail's WithCarry conversions are
					// total.
					if out := o.f(x, y); out.Carrying() && !out.HasTransition() {
						t.Errorf("%s: %s(%s,%s) = %s carries without a transition", alg.Name(), o.name, x, y, out)
					}
				}
			}
		}
	}
}

// TestDeMorganProperty: the OR table is the exact De Morgan dual of AND in
// both algebras, for sets as well as values.
func TestDeMorganProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		A, B := Set(a), Set(b)
		for _, alg := range []*Algebra{Robust, NonRobust} {
			if alg.setOr[A][B] != alg.NotSet(alg.setAnd[alg.NotSet(A)][alg.NotSet(B)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
