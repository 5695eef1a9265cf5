package atpg

import (
	"fogbuster/internal/core"
	"fogbuster/internal/netlist"
)

// EventKind discriminates the streaming notifications of a run. The
// string values are stable.
type EventKind string

const (
	// EventFaultClassified reports the commit of an explicitly targeted
	// fault's final status (tested, untestable or aborted).
	EventFaultClassified EventKind = "fault_classified"
	// EventSequenceGenerated reports the commit of an explicit test
	// sequence; it follows the target's EventFaultClassified.
	EventSequenceGenerated EventKind = "sequence_generated"
	// EventCreditApplied reports a fault classified tested_by_sim
	// because the just-committed sequence (By) detects it.
	EventCreditApplied EventKind = "credit_applied"
	// EventProgress reports one targeting position committed: Done
	// positions of Total are final.
	EventProgress EventKind = "progress"
)

// Event is one ordered notification from a running session, delivered
// straight off the engine's merge loop in commit (targeting) order.
// Every field is a deterministic function of the circuit and the Config
// — independent of worker count and scheduling — so two runs of one
// Config emit byte-identical streams, except that a cancelled run
// truncates its stream.
type Event struct {
	Kind EventKind `json:"kind"`
	// Fault names the fault the event concerns (classification, sequence
	// and credit events).
	Fault string `json:"fault,omitempty"`
	// Status is the committed classification (EventFaultClassified,
	// EventCreditApplied).
	Status Status `json:"status,omitempty"`
	// Seq is the committed sequence (EventSequenceGenerated only).
	Seq *Sequence `json:"seq,omitempty"`
	// By names the explicitly targeted fault whose sequence produced the
	// credit (EventCreditApplied only).
	By string `json:"by,omitempty"`
	// Done and Total carry the commit progress (EventProgress only).
	// Total is the number of targeting positions the run will process —
	// the whole fault universe, or Config.MaxTargets on a budgeted run.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// eventOf converts an engine event, resolving names against the circuit.
func eventOf(c *netlist.Circuit, ev core.Event) Event {
	switch ev.Kind {
	case core.EventProgress:
		return Event{Kind: EventProgress, Done: ev.Done, Total: ev.Total}
	case core.EventSequenceGenerated:
		return Event{Kind: EventSequenceGenerated, Fault: ev.Fault.Name(c), Seq: sequenceOf(c, ev.Seq, nil)}
	case core.EventCreditApplied:
		return Event{Kind: EventCreditApplied, Fault: ev.Fault.Name(c), Status: StatusTestedBySim, By: ev.By.Name(c)}
	default:
		return Event{Kind: EventFaultClassified, Fault: ev.Fault.Name(c), Status: statusOf(ev.Status)}
	}
}
