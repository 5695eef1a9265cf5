package core

import "fogbuster/internal/faults"

// EventKind discriminates the merge-loop notifications.
type EventKind uint8

const (
	// EventFaultClassified reports the commit of an explicitly targeted
	// fault's final status (Tested, Untestable or Aborted).
	EventFaultClassified EventKind = iota
	// EventSequenceGenerated reports the commit of an explicit test
	// sequence; it follows the target's EventFaultClassified.
	EventSequenceGenerated
	// EventCreditApplied reports a fault classified TestedBySim because
	// the just-committed sequence (By) detects it.
	EventCreditApplied
	// EventProgress reports one targeting position committed: Done
	// positions of Total are final.
	EventProgress
)

// Event is one ordered notification emitted by the merge loop as it
// commits worker outcomes in targeting order. Every field is a
// deterministic function of the circuit and the options — independent of
// worker count and scheduling — so two runs of one configuration emit
// identical streams, except that a cancelled run truncates its stream.
// A position's events are delivered after that position is committed
// (Engine.Committed already includes it) and before the next one is, so
// consumers observe exactly the serial chronology.
type Event struct {
	Kind EventKind
	// Index is the Summary.Results index of the fault the event concerns
	// (classification, sequence and credit events).
	Index int
	// Fault is the fault at Index.
	Fault faults.Delay
	// Status is the committed classification (EventFaultClassified,
	// EventCreditApplied).
	Status Status
	// ValFail is the number of candidate sequences the independent
	// validator rejected while searching this fault
	// (EventFaultClassified only); summing it over the stream yields
	// Summary.ValidationFailures for the committed prefix.
	ValFail int
	// Seq is the committed sequence (EventSequenceGenerated only).
	Seq *TestSequence
	// By and ByIndex name the explicitly targeted fault whose sequence
	// produced the credit (EventCreditApplied only).
	By      faults.Delay
	ByIndex int
	// Done and Total carry the commit progress (EventProgress only).
	// Total is the number of positions this run will process — the whole
	// universe, or Options.MaxTargets on a budgeted run.
	Done, Total int
}
