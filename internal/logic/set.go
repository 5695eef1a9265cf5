package logic

import (
	"math/bits"
	"strings"
)

// Set is a set of algebra values, packed one bit per Value. TDgen maintains
// a Set for every line and refines them by constraint propagation, in the
// style the paper cites from Rajski and Cox.
type Set uint8

// Common sets.
const (
	EmptySet Set = 0
	FullSet  Set = 1<<NumValues - 1

	// PIDomain is the domain of primary and pseudo primary inputs: such a
	// signal is applied or latched, so it is hazard-free and changes at
	// most once, and it never originates a fault effect.
	PIDomain = Set(1<<Zero | 1<<One | 1<<Rise | 1<<Fall)

	// CarrySet holds the two fault-effect values.
	CarrySet = Set(1<<RiseC | 1<<FallC)

	// PlainSet holds everything except the fault-effect values. Lines
	// outside the fault site's output cone are confined to it.
	PlainSet = FullSet &^ CarrySet

	// SteadySet holds the hazard-free constant values.
	SteadySet = Set(1<<Zero | 1<<One)

	// Frame-value masks: the values whose initial (first-frame) or final
	// (test-frame) settled value is zero or one. s&InitOneSet != 0 asks
	// whether some member of s starts at one, without iterating s.
	InitZeroSet  = Set(1<<Zero | 1<<Rise | 1<<ZeroH | 1<<RiseC)
	InitOneSet   = Set(1<<One | 1<<Fall | 1<<OneH | 1<<FallC)
	FinalZeroSet = Set(1<<Zero | 1<<Fall | 1<<ZeroH | 1<<FallC)
	FinalOneSet  = Set(1<<One | 1<<Rise | 1<<OneH | 1<<RiseC)
)

// S builds a set from values.
func S(vs ...Value) Set {
	var s Set
	for _, v := range vs {
		s |= 1 << v
	}
	return s
}

// Has reports whether v is in the set.
func (s Set) Has(v Value) bool { return s&(1<<v) != 0 }

// Add returns the set with v added.
func (s Set) Add(v Value) Set { return s | 1<<v }

// Del returns the set with v removed.
func (s Set) Del(v Value) Set { return s &^ (1 << v) }

// Count returns the number of values in the set.
func (s Set) Count() int { return bits.OnesCount8(uint8(s)) }

// Empty reports whether the set has no values.
func (s Set) Empty() bool { return s == 0 }

// Singleton returns the set's only value. ok is false unless the set has
// exactly one element.
func (s Set) Singleton() (v Value, ok bool) {
	if s.Count() != 1 {
		return 0, false
	}
	return Value(bits.TrailingZeros8(uint8(s))), true
}

// Values returns the members in ascending order.
func (s Set) Values() []Value {
	vs := make([]Value, 0, s.Count())
	for v := Value(0); v < NumValues; v++ {
		if s.Has(v) {
			vs = append(vs, v)
		}
	}
	return vs
}

// String formats the set as {v1,v2,...}.
func (s Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for v := Value(0); v < NumValues; v++ {
		if s.Has(v) {
			if !first {
				sb.WriteByte(',')
			}
			sb.WriteString(v.String())
			first = false
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
