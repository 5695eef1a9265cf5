// Package sim provides the simulation substrate for the ATPG system:
// levelized multi-valued evaluation of the combinational block under the
// 3-valued (0/1/X), 5-valued (D-algebra), 8-valued (two-frame delay
// algebra) and 64-way bit-parallel 2-valued domains, plus sequential
// (multi-frame) simulation with fault injection at stem or fanout-branch
// granularity.
//
// The structural substrate is the immutable Topology (flat CSR edge
// arrays, level buckets, cone bitsets), shared by all workers of a run.
// A Net couples one Topology with per-worker scratch: fanin gather
// buffers, the event-driven worklist, and the touched lists of the
// sparse kernels. Every evaluator exists in two forms — the full
// levelized walk over Topology.Order, and an event-driven selective-trace
// variant (cone.go) that re-evaluates only the fanout cone of a set of
// changed sources. The two are bit-identical by construction and by test.
package sim

import (
	"fogbuster/internal/logic"
	"fogbuster/internal/netlist"
)

// Net is the per-worker simulation view of a circuit: the shared
// Topology plus reusable scratch buffers. A Net must not be used from
// multiple goroutines concurrently; build one Net per worker (NewNetOn
// shares the Topology, so per-worker construction stays cheap).
type Net struct {
	T *Topology
	C *netlist.Circuit // == T.C, kept for the many existing call sites

	// ins64 is the reusable fanin scratch for the 64-way evaluators,
	// sized once from the circuit's maximum fanin; ins8 its counterpart
	// for the scalar eight-valued walk, so Eval8 never allocates even
	// for gates wider than any fixed stack buffer.
	ins64 []Word
	ins8  []logic.Value
	ins3  []V3
	ins5  []V5

	// rail is the shared eight-valued rail frame (SharedRail).
	rail *Rail64

	// wl is the level-bucketed worklist of the event-driven kernels.
	wl worklist

	// Sparse-kernel bookkeeping. The carry kernel (EvalCarry64Cone) and
	// the dual-rail overlay kernel (Eval64DROverlay) each track the nodes
	// diverging from their baseline with a marked flag plus a touched
	// list for O(touched) reset; the two sets are separate because
	// ConfirmBatch runs both kernels within one chunk.
	carryMarked  []bool
	carryTouched []netlist.NodeID
	ovMarked     []bool
	ovTouched    []netlist.NodeID
}

// NewNet builds a simulation view with a private Topology. Prefer
// NewNetOn when several workers simulate the same circuit.
func NewNet(c *netlist.Circuit) *Net { return NewNetOn(NewTopology(c)) }

// NewNetOn builds a per-worker view sharing the given Topology.
func NewNetOn(t *Topology) *Net {
	return &Net{
		T:           t,
		C:           t.C,
		ins64:       make([]Word, 2*t.MaxFanin),
		ins8:        make([]logic.Value, t.MaxFanin),
		ins3:        make([]V3, t.MaxFanin),
		ins5:        make([]V5, t.MaxFanin),
		carryMarked: make([]bool, t.NumNodes()),
		ovMarked:    make([]bool, t.NumNodes()),
	}
}

// EdgeOf returns the flat edge index of the connection feeding input
// position pos of node id.
func (n *Net) EdgeOf(id netlist.NodeID, pos int) int { return n.T.EdgeOf(id, pos) }

// NumEdges returns the total fanin connection count of the circuit.
func (n *Net) NumEdges() int { return n.T.NumEdges() }

// BranchOf returns the fanout branch index of the connection feeding input
// position pos of node id.
func (n *Net) BranchOf(id netlist.NodeID, pos int) int { return n.T.BranchOf(id, pos) }

// OnLine reports whether the connection feeding input position pos of node
// id lies on the given line: either the line is the driver's stem, or it is
// exactly this branch.
func (n *Net) OnLine(l netlist.Line, id netlist.NodeID, pos int) bool {
	return n.T.OnLine(l, id, pos)
}

// NumNodes returns the node count of the underlying circuit.
func (n *Net) NumNodes() int { return n.T.NumNodes() }
