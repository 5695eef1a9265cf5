package logic

import (
	"testing"

	"fogbuster/internal/netlist"
)

// TestPaperTable2Not pins the inverter truth table exactly as printed in
// the paper's Table 2.
func TestPaperTable2Not(t *testing.T) {
	want := [NumValues]Value{One, Zero, Fall, Rise, OneH, ZeroH, FallC, RiseC}
	for v := Value(0); v < NumValues; v++ {
		if got := Robust.Not(v); got != want[v] {
			t.Errorf("Not(%v) = %v, want %v", v, got, want[v])
		}
	}
}

// fullAndTable is the complete AND truth table of the robust algebra in
// row-major order (rows and columns ordered 0,1,R,F,0h,1h,Rc,Fc). The Rc
// and Fc rows appear verbatim in the paper's Table 1.
var fullAndTable = [NumValues][NumValues]Value{
	Zero:  {Zero, Zero, Zero, Zero, Zero, Zero, Zero, Zero},
	One:   {Zero, One, Rise, Fall, ZeroH, OneH, RiseC, FallC},
	Rise:  {Zero, Rise, Rise, ZeroH, ZeroH, Rise, RiseC, ZeroH},
	Fall:  {Zero, Fall, ZeroH, Fall, ZeroH, Fall, ZeroH, Fall},
	ZeroH: {Zero, ZeroH, ZeroH, ZeroH, ZeroH, ZeroH, ZeroH, ZeroH},
	OneH:  {Zero, OneH, Rise, Fall, ZeroH, OneH, RiseC, Fall},
	RiseC: {Zero, RiseC, RiseC, ZeroH, ZeroH, RiseC, RiseC, ZeroH},
	FallC: {Zero, FallC, ZeroH, Fall, ZeroH, Fall, ZeroH, FallC},
}

// TestPaperTable1And pins the whole AND table; the Rc/Fc rows are the
// paper's printed rows [0,Rc,Rc,0h,0h,Rc,Rc,0h] and [0,Fc,0h,F,0h,F,0h,Fc].
func TestPaperTable1And(t *testing.T) {
	for x := Value(0); x < NumValues; x++ {
		for y := Value(0); y < NumValues; y++ {
			if got := Robust.And(x, y); got != fullAndTable[x][y] {
				t.Errorf("And(%v,%v) = %v, want %v", x, y, got, fullAndTable[x][y])
			}
		}
	}
}

// semOr derives the OR table independently of the implementation's
// De Morgan construction, from the dual robust rules: a rising effect
// through OR needs steady-zero side inputs, a falling effect needs final
// value zero.
func semOr(robust bool, x, y Value) Value {
	if x == One || y == One {
		return One
	}
	if x == Zero {
		return y
	}
	if y == Zero {
		return x
	}
	cx, cy := x.Carrying(), y.Carrying()
	sideOK := func(on, side Value) bool {
		if side.Final() != 0 {
			return false
		}
		if on == RiseC {
			if robust {
				return side == Zero
			}
			return side.Initial() == 0
		}
		return true
	}
	switch {
	case cx && cy:
		if x == y {
			return x
		}
	case cx:
		if sideOK(x, y) {
			return x
		}
	case cy:
		if sideOK(y, x) {
			return y
		}
	}
	return FromEndpoints(x.Initial()|y.Initial(), x.Final()|y.Final(), true)
}

func TestOrMatchesDualSemantics(t *testing.T) {
	for _, a := range []*Algebra{Robust, NonRobust} {
		for x := Value(0); x < NumValues; x++ {
			for y := Value(0); y < NumValues; y++ {
				want := semOr(a.IsRobust(), x, y)
				if got := a.Or(x, y); got != want {
					t.Errorf("%s: Or(%v,%v) = %v, want %v", a.Name(), x, y, got, want)
				}
			}
		}
	}
}

// TestAlgebraLaws verifies commutativity and associativity of the core
// operations; the n-ary gate evaluation and the prefix/suffix pruning in
// Prune depend on both.
func TestAlgebraLaws(t *testing.T) {
	for _, a := range []*Algebra{Robust, NonRobust} {
		ops := map[string]func(Value, Value) Value{
			"and": a.And, "or": a.Or, "xor": a.Xor,
		}
		for name, op := range ops {
			for x := Value(0); x < NumValues; x++ {
				for y := Value(0); y < NumValues; y++ {
					if op(x, y) != op(y, x) {
						t.Errorf("%s/%s: not commutative at (%v,%v)", a.Name(), name, x, y)
					}
					for z := Value(0); z < NumValues; z++ {
						if op(op(x, y), z) != op(x, op(y, z)) {
							t.Errorf("%s/%s: not associative at (%v,%v,%v)", a.Name(), name, x, y, z)
						}
					}
				}
			}
		}
	}
}

// TestNoSpontaneousCarry checks the paper's rule that "an Rc or Fc value
// never emerges at an output of a gate if there wasn't already one or more
// of these values at the input".
func TestNoSpontaneousCarry(t *testing.T) {
	for _, a := range []*Algebra{Robust, NonRobust} {
		for x := Value(0); x < NumValues; x++ {
			for y := Value(0); y < NumValues; y++ {
				if x.Carrying() || y.Carrying() {
					continue
				}
				for name, got := range map[string]Value{
					"and": a.And(x, y), "or": a.Or(x, y), "xor": a.Xor(x, y),
				} {
					if got.Carrying() {
						t.Errorf("%s: %s(%v,%v) = %v creates a fault effect", a.Name(), name, x, y, got)
					}
				}
			}
		}
	}
}

// TestEndpointsPreserved checks that every gate preserves the two-frame
// endpoint semantics: the output's initial (final) value is the Boolean
// function of the inputs' initial (final) values.
func TestEndpointsPreserved(t *testing.T) {
	bool2 := map[string]func(p, q uint8) uint8{
		"and": func(p, q uint8) uint8 { return p & q },
		"or":  func(p, q uint8) uint8 { return p | q },
		"xor": func(p, q uint8) uint8 { return p ^ q },
	}
	for _, a := range []*Algebra{Robust, NonRobust} {
		ops := map[string]func(Value, Value) Value{"and": a.And, "or": a.Or, "xor": a.Xor}
		for name, op := range ops {
			for x := Value(0); x < NumValues; x++ {
				for y := Value(0); y < NumValues; y++ {
					got := op(x, y)
					if got.Initial() != bool2[name](x.Initial(), y.Initial()) {
						// Non-robust carrying values keep only their final
						// component exact; their initial is nominal.
						if a.IsRobust() || !got.Carrying() {
							t.Errorf("%s: %s(%v,%v)=%v wrong initial", a.Name(), name, x, y, got)
						}
					}
					if got.Final() != bool2[name](x.Final(), y.Final()) {
						t.Errorf("%s: %s(%v,%v)=%v wrong final", a.Name(), name, x, y, got)
					}
				}
			}
		}
	}
}

// TestNonRobustRelaxation spot-checks the relaxed propagation conditions
// from the paper's conclusions: with all fault-free signals assumed to
// settle, a falling effect passes AND side inputs that merely end at one,
// and effects pass XOR gates with transitioning side inputs.
func TestNonRobustRelaxation(t *testing.T) {
	cases := []struct {
		op   string
		x, y Value
		rob  Value // robust result
		non  Value // non-robust result
	}{
		{"and", FallC, OneH, Fall, FallC},  // hazardous one admitted non-robustly
		{"and", FallC, Rise, ZeroH, ZeroH}, // rising side unrepresentable, blocked in both
		{"and", FallC, Fall, Fall, Fall},   // side final 0 blocks in both
		{"and", RiseC, OneH, RiseC, RiseC}, // rising rule identical in both
		{"and", RiseC, Rise, RiseC, RiseC},
		{"xor", RiseC, Rise, ZeroH, ZeroH}, // XOR needs steady sides in both
		{"xor", RiseC, Zero, RiseC, RiseC},
		{"xor", RiseC, One, FallC, FallC},
		{"or", RiseC, ZeroH, Rise, RiseC}, // dual of the AND relaxation
		{"or", RiseC, Fall, OneH, OneH},
		{"or", FallC, ZeroH, FallC, FallC},
	}
	for _, c := range cases {
		var gotR, gotN Value
		switch c.op {
		case "and":
			gotR, gotN = Robust.And(c.x, c.y), NonRobust.And(c.x, c.y)
		case "or":
			gotR, gotN = Robust.Or(c.x, c.y), NonRobust.Or(c.x, c.y)
		default:
			gotR, gotN = Robust.Xor(c.x, c.y), NonRobust.Xor(c.x, c.y)
		}
		if gotR != c.rob {
			t.Errorf("robust %s(%v,%v) = %v, want %v", c.op, c.x, c.y, gotR, c.rob)
		}
		if gotN != c.non {
			t.Errorf("non-robust %s(%v,%v) = %v, want %v", c.op, c.x, c.y, gotN, c.non)
		}
	}
}

func TestSetImagesExact(t *testing.T) {
	// Exhaustive over all 256x256 set pairs would be slow in triplicate;
	// sample a deterministic stride plus all singleton pairs.
	type op struct {
		set  *[1 << NumValues][1 << NumValues]Set
		pair func(Value, Value) Value
	}
	for _, a := range []*Algebra{Robust, NonRobust} {
		ops := map[string]op{
			"and": {&a.setAnd, a.And},
			"or":  {&a.setOr, a.Or},
			"xor": {&a.setXor, a.Xor},
		}
		for name, o := range ops {
			for sa := 0; sa < 256; sa += 7 {
				for sb := 0; sb < 256; sb += 5 {
					var want Set
					for _, x := range Set(sa).Values() {
						for _, y := range Set(sb).Values() {
							want = want.Add(o.pair(x, y))
						}
					}
					if got := o.set[sa][sb]; got != want {
						t.Fatalf("%s: %sSet(%v,%v) = %v, want %v", a.Name(), name, Set(sa), Set(sb), got, want)
					}
				}
			}
		}
	}
}

// TestNotSetTable pins the precomputed NotSet table against the per-value
// loop it replaces, for all 256 sets under both algebras.
func TestNotSetTable(t *testing.T) {
	for _, a := range []*Algebra{Robust, NonRobust} {
		for s := 0; s < 1<<NumValues; s++ {
			var want Set
			for v := Value(0); v < NumValues; v++ {
				if Set(s).Has(v) {
					want = want.Add(a.Not(v))
				}
			}
			if got := a.NotSet(Set(s)); got != want {
				t.Fatalf("%s: NotSet(%v) = %v, want %v", a.Name(), Set(s), got, want)
			}
		}
	}
}

// TestFrameMasks pins the initial/final-value masks against Value's
// Initial and Final.
func TestFrameMasks(t *testing.T) {
	for v := Value(0); v < NumValues; v++ {
		if InitZeroSet.Has(v) != (v.Initial() == 0) || InitOneSet.Has(v) != (v.Initial() == 1) {
			t.Errorf("%v: initial masks disagree with Initial()=%d", v, v.Initial())
		}
		if FinalZeroSet.Has(v) != (v.Final() == 0) || FinalOneSet.Has(v) != (v.Final() == 1) {
			t.Errorf("%v: final masks disagree with Final()=%d", v, v.Final())
		}
	}
}

func TestEvalMatchesBruteForce(t *testing.T) {
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	for _, typ := range types {
		for x := Value(0); x < NumValues; x++ {
			for y := Value(0); y < NumValues; y++ {
				for z := Value(0); z < NumValues; z++ {
					got := Robust.Eval(typ, []Value{x, y, z})
					op, inv := coreOf(typ)
					want := Robust.apply(op, Robust.apply(op, x, y), z)
					if inv {
						want = Robust.Not(want)
					}
					if got != want {
						t.Fatalf("Eval(%v, %v,%v,%v) = %v, want %v", typ, x, y, z, got, want)
					}
				}
			}
		}
	}
	if got := Robust.Eval(netlist.Not, []Value{RiseC}); got != FallC {
		t.Errorf("Eval(NOT, Rc) = %v, want Fc", got)
	}
	if got := Robust.Eval(netlist.Buf, []Value{OneH}); got != OneH {
		t.Errorf("Eval(BUFF, 1h) = %v, want 1h", got)
	}
}
