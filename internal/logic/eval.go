package logic

import "fogbuster/internal/netlist"

// coreOp identifies the monotone core of a gate type; inverting types
// apply Not afterwards.
type coreOp uint8

const (
	opBuf coreOp = iota
	opAnd
	opOr
	opXor
)

func coreOf(t netlist.GateType) (op coreOp, invert bool) {
	switch t {
	case netlist.Buf, netlist.DFF:
		return opBuf, false
	case netlist.Not:
		return opBuf, true
	case netlist.And:
		return opAnd, false
	case netlist.Nand:
		return opAnd, true
	case netlist.Or:
		return opOr, false
	case netlist.Nor:
		return opOr, true
	case netlist.Xor:
		return opXor, false
	case netlist.Xnor:
		return opXor, true
	}
	panic("logic: no evaluation for gate type " + t.String())
}

func (a *Algebra) apply(op coreOp, x, y Value) Value {
	switch op {
	case opAnd:
		return a.and[x][y]
	case opOr:
		return a.or[x][y]
	default:
		return a.xor[x][y]
	}
}

func (a *Algebra) applySet(op coreOp, x, y Set) Set {
	switch op {
	case opAnd:
		return a.setAnd[x][y]
	case opOr:
		return a.setOr[x][y]
	default:
		return a.setXor[x][y]
	}
}

// Eval evaluates a gate of type t over concrete input values. The core
// tables are associative and commutative (verified by the package tests),
// so an n-ary gate is a left fold.
func (a *Algebra) Eval(t netlist.GateType, ins []Value) Value {
	op, inv := coreOf(t)
	if len(ins) == 0 {
		panic("logic: Eval with no inputs")
	}
	v := ins[0]
	if op != opBuf {
		for _, in := range ins[1:] {
			v = a.apply(op, v, in)
		}
	}
	if inv {
		v = a.not[v]
	}
	return v
}

// EvalSet evaluates a gate over input sets, returning the exact image set.
func (a *Algebra) EvalSet(t netlist.GateType, ins []Set) Set {
	op, inv := coreOf(t)
	if len(ins) == 0 {
		panic("logic: EvalSet with no inputs")
	}
	s := ins[0]
	if op != opBuf {
		for _, in := range ins[1:] {
			s = a.applySet(op, s, in)
		}
	}
	if inv {
		s = a.NotSet(s)
	}
	return s
}

// Prune performs one pass of arc consistency across a gate: it removes
// input values that cannot produce any allowed output under any choice of
// the other inputs, and tightens the output to the image of the inputs.
// ins and the returned output set are updated in place/by value. ok is
// false when any set becomes empty (a conflict).
//
// Because the core tables are associative and commutative, prefix/suffix
// set folds give the exact set of values producible by "all inputs except
// i", so the pruning is exact for arbitrary fanin.
func (a *Algebra) Prune(t netlist.GateType, ins []Set, out Set) (newOut Set, changed, ok bool) {
	op, inv := coreOf(t)
	coreOut := out
	if inv {
		coreOut = a.NotSet(coreOut)
	}

	n := len(ins)
	if n == 1 {
		newIn := ins[0]
		if op == opBuf {
			newIn &= coreOut
			coreOut &= newIn
		}
		changed = newIn != ins[0]
		ins[0] = newIn
	} else {
		// pre[i] = fold(ins[0..i]), suf[i] = fold(ins[i..n-1]), on the
		// stack for the usual gate widths.
		var preBuf, sufBuf [16]Set
		pre, suf := preBuf[:], sufBuf[:]
		if n > len(preBuf) {
			pre, suf = make([]Set, n), make([]Set, n)
		}
		pre[0] = ins[0]
		for i := 1; i < n; i++ {
			pre[i] = a.applySet(op, pre[i-1], ins[i])
		}
		suf[n-1] = ins[n-1]
		for i := n - 2; i >= 0; i-- {
			suf[i] = a.applySet(op, ins[i], suf[i+1])
		}
		for i := 0; i < n; i++ {
			others := EmptySet
			switch {
			case i == 0:
				others = suf[1]
			case i == n-1:
				others = pre[n-2]
			default:
				others = a.applySet(op, pre[i-1], suf[i+1])
			}
			var keep Set
			for v := Value(0); v < NumValues; v++ {
				if !ins[i].Has(v) {
					continue
				}
				if a.applySet(op, Set(1)<<v, others)&coreOut != 0 {
					keep = keep.Add(v)
				}
			}
			if keep != ins[i] {
				changed = true
				ins[i] = keep
			}
		}
		image := ins[0]
		for i := 1; i < n; i++ {
			image = a.applySet(op, image, ins[i])
		}
		coreOut &= image
	}

	if inv {
		newOut = a.NotSet(coreOut)
	} else {
		newOut = coreOut
	}
	if newOut != out {
		changed = true
	}
	ok = newOut != EmptySet
	for _, in := range ins {
		if in == EmptySet {
			ok = false
		}
	}
	return newOut, changed, ok
}
