package logic

// Algebra bundles the gate truth tables of the eight-valued logic under a
// particular fault model. Robust is the paper's model (Tables 1 and 2);
// NonRobust is the relaxation the paper's conclusions propose, in which a
// fault effect propagates whenever the final values of the side inputs
// sensitize the path (transition-fault style), because all fault-free
// signals are assumed to settle within the fast clock period.
type Algebra struct {
	name   string
	robust bool

	not [NumValues]Value
	and [NumValues][NumValues]Value
	or  [NumValues][NumValues]Value
	xor [NumValues][NumValues]Value

	// Set-level transfer tables: setOp[a][b] is the exact image
	// {op(x,y) : x in a, y in b}, and notSet[a] the image {not(x) : x in
	// a}, precomputed for implication speed.
	notSet [1 << NumValues]Set
	setAnd [1 << NumValues][1 << NumValues]Set
	setOr  [1 << NumValues][1 << NumValues]Set
	setXor [1 << NumValues][1 << NumValues]Set
}

// The two supported fault models.
var (
	Robust    = newAlgebra("robust", true)
	NonRobust = newAlgebra("non-robust", false)
)

// Name returns "robust" or "non-robust".
func (a *Algebra) Name() string { return a.name }

// IsRobust reports whether the algebra enforces the robust criterion.
func (a *Algebra) IsRobust() bool { return a.robust }

// Not returns the inverter output (the paper's Table 2).
func (a *Algebra) Not(v Value) Value { return a.not[v] }

// And returns the 2-input AND output (the paper's Table 1).
func (a *Algebra) And(x, y Value) Value { return a.and[x][y] }

// Or returns the 2-input OR output, the De Morgan dual of And.
func (a *Algebra) Or(x, y Value) Value { return a.or[x][y] }

// Xor returns the 2-input XOR output. Under the robust model a fault
// effect passes an XOR only when the side input is steady, because any
// side transition or hazard inverts the on-path signal at an unknown time.
func (a *Algebra) Xor(x, y Value) Value { return a.xor[x][y] }

func newAlgebra(name string, robust bool) *Algebra {
	a := &Algebra{name: name, robust: robust}
	for v := Value(0); v < NumValues; v++ {
		a.not[v] = deriveNot(v)
	}
	for x := Value(0); x < NumValues; x++ {
		for y := Value(0); y < NumValues; y++ {
			a.and[x][y] = deriveAnd(robust, x, y)
			a.xor[x][y] = deriveXor(x, y)
		}
	}
	// OR by De Morgan: x or y = not(not x and not y).
	for x := Value(0); x < NumValues; x++ {
		for y := Value(0); y < NumValues; y++ {
			a.or[x][y] = a.not[a.and[a.not[x]][a.not[y]]]
		}
	}
	a.buildSetTables()
	return a
}

// deriveNot implements the inverter semantics: both frame values invert,
// hazards and the fault-effect flag are preserved.
func deriveNot(v Value) Value {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	case Rise:
		return Fall
	case Fall:
		return Rise
	case ZeroH:
		return OneH
	case OneH:
		return ZeroH
	case RiseC:
		return FallC
	default:
		return RiseC
	}
}

// deriveAnd implements the AND semantics over waveforms described by
// (initial, final, steadiness, fault-effect). The fault-effect rules are
// the paper's: Rc propagates past any side input whose final value is one
// (the output can only show the good final value one once the on-path
// input has risen), while under the robust model Fc needs a steady one on
// the side input (any side transition or hazard could produce the good
// final value zero at the output without the fault site having fallen).
func deriveAnd(robust bool, x, y Value) Value {
	// Constant dominance and identity keep steadiness exact.
	if x == Zero || y == Zero {
		return Zero
	}
	if x == One {
		return y
	}
	if y == One {
		return x
	}
	cx, cy := x.Carrying(), y.Carrying()
	switch {
	case cx && cy:
		// Reconvergent effects of the same fault: same direction
		// reinforces, opposite directions cancel at the endpoints.
		if x == y {
			return x
		}
	case cx:
		if andSideAllows(robust, x, y) {
			return x
		}
	case cy:
		if andSideAllows(robust, y, x) {
			return y
		}
	}
	// No (surviving) fault effect: combine the endpoints. Both inputs are
	// non-constant here, so equal endpoints cannot be guaranteed
	// hazard-free.
	return FromEndpoints(x.Initial()&y.Initial(), x.Final()&y.Final(), true)
}

// andSideAllows reports whether a side input allows the on-path fault
// effect through an AND gate. The rising rule (final value one) is the
// same in both models. For a falling effect the robust model demands a
// steady one; the non-robust model additionally admits a hazardous one
// (1h), because fault-free signals are assumed to settle. Side inputs that
// end at one but start at zero are blocked even non-robustly: the output
// would not fall at all in the good machine, and a "steady zero carrying
// the effect" is not representable in the eight values, so the algebra
// conservatively drops the effect there.
func andSideAllows(robust bool, on, side Value) bool {
	if side.Final() != 1 {
		return false
	}
	if on == FallC {
		if robust {
			return side == One
		}
		return side.Initial() == 1
	}
	return true
}

// deriveXor implements the XOR semantics. A steady side input passes the
// on-path value through (inverted for a steady one), preserving the fault
// effect; any transitioning or hazardous side input drops it, in both
// models, because the surviving effect would not be representable as a
// clean Rc/Fc transition.
func deriveXor(x, y Value) Value {
	if x == Zero {
		return y
	}
	if y == Zero {
		return x
	}
	if x == One {
		return deriveNot(y)
	}
	if y == One {
		return deriveNot(x)
	}
	return FromEndpoints(x.Initial()^y.Initial(), x.Final()^y.Final(), true)
}

func (a *Algebra) buildSetTables() {
	for s := range a.notSet {
		for v := Value(0); v < NumValues; v++ {
			if Set(s).Has(v) {
				a.notSet[s] = a.notSet[s].Add(a.not[v])
			}
		}
	}
	// Image of a singleton pair, then fold unions over set bits. Building
	// row 1<<x against all b first keeps the inner loops tiny.
	for x := Value(0); x < NumValues; x++ {
		for y := Value(0); y < NumValues; y++ {
			sx, sy := Set(1)<<x, Set(1)<<y
			a.setAnd[sx][sy] = 1 << a.and[x][y]
			a.setOr[sx][sy] = 1 << a.or[x][y]
			a.setXor[sx][sy] = 1 << a.xor[x][y]
		}
	}
	for sa := 1; sa < 1<<NumValues; sa++ {
		lowA := Set(sa) & -Set(sa)
		restA := Set(sa) &^ lowA
		for sb := 1; sb < 1<<NumValues; sb++ {
			if restA == 0 {
				lowB := Set(sb) & -Set(sb)
				restB := Set(sb) &^ lowB
				if restB == 0 {
					continue // singleton pair, already set
				}
				a.setAnd[sa][sb] = a.setAnd[sa][lowB] | a.setAnd[sa][restB]
				a.setOr[sa][sb] = a.setOr[sa][lowB] | a.setOr[sa][restB]
				a.setXor[sa][sb] = a.setXor[sa][lowB] | a.setXor[sa][restB]
				continue
			}
			a.setAnd[sa][sb] = a.setAnd[lowA][sb] | a.setAnd[restA][sb]
			a.setOr[sa][sb] = a.setOr[lowA][sb] | a.setOr[restA][sb]
			a.setXor[sa][sb] = a.setXor[lowA][sb] | a.setXor[restA][sb]
		}
	}
}

// NotSet returns the exact image of Not over a set. Not is an involution,
// so this is also the preimage.
func (a *Algebra) NotSet(s Set) Set { return a.notSet[s] }
