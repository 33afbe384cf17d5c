// Package memmodel checks whole-machine execution histories against the
// memory consistency model the Multicube promises its programmers: a
// single coherent shared memory, i.e. sequential consistency. It is the
// memory-model-level companion to the protocol-level model checker in
// internal/mc — the protocol can be bug-free at the level of individual
// cache lines while the machine still reorders operations on *different*
// lines in ways no interleaved execution could produce (an invalidation
// broadcast racing a read reply on another line, for instance), and only
// a cross-address check catches that.
//
// The package is deliberately free of machine dependencies. A History is
// a flat log of completed read/write events, each carrying the issuing
// processor, the address, and the observed value (writes also record the
// value they overwrote, which pins down each address's write order
// without any searching). Capture adapters live with the machines:
// internal/mc records histories during model-checked executions, and
// internal/core's RecordingMem wraps a processor for timed DES runs.
//
// Two checks are offered:
//
//   - CheckCoherence: per-address coherence only — every address's
//     writes form a single total order and each processor observes
//     non-decreasing positions in it. This is the witness the model
//     checker has always applied, relocated here.
//   - Check: full sequential consistency — a backtracking search for a
//     single total order of ALL events that respects program order,
//     each address's write order, and every read's reads-from edge. The
//     search memoizes explored frontiers, so it is exact on
//     litmus-sized histories and counterexample prefixes; a node budget
//     turns pathological blowups into an explicit Undecided verdict
//     rather than an open-ended stall.
//
// The litmus sub-library expresses the classic shapes (SB/Dekker, MP,
// LB, WRC, IRIW, CoRR, CoWW) once; internal/mc compiles them to bounded
// model-checking scenarios and internal/workload compiles them to timed
// DES stress programs, with this package judging the histories of both.
// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis).
//
//multicube:deterministic
package memmodel

import "fmt"

// Event is one completed memory operation in a history.
type Event struct {
	// Proc identifies the issuing processor; program order within a
	// processor is the order its events appear in the history.
	Proc int
	// Addr is the memory location. Units are the capturer's choice (the
	// model checker records cache lines, the DES recorder word
	// addresses); the checker only compares addresses for equality.
	Addr uint64
	// Write is true for a write of Value overwriting Old, false for a
	// read observing Value.
	Write bool
	// Value is the value written or observed. Writes must store values
	// that are nonzero and unique per address (the initial contents of
	// every address is 0); the capture adapters guarantee this.
	Value uint64
	// Old is the value a write observed in place before overwriting —
	// the edge that chains each address's writes into a total order.
	Old uint64
}

func (e Event) String() string {
	if e.Write {
		return fmt.Sprintf("P%d W[%d]=%d (over %d)", e.Proc, e.Addr, e.Value, e.Old)
	}
	return fmt.Sprintf("P%d R[%d]=%d", e.Proc, e.Addr, e.Value)
}

// History is a log of completed memory events in observation order.
// Events of one processor must appear in its program order; events of
// different processors may interleave arbitrarily. The zero value is an
// empty history ready for use.
type History struct {
	events []Event
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// Read appends a read event: proc observed val at addr.
func (h *History) Read(proc int, addr, val uint64) {
	h.events = append(h.events, Event{Proc: proc, Addr: addr, Value: val})
}

// Write appends a write event: proc overwrote old with val at addr.
func (h *History) Write(proc int, addr, old, val uint64) {
	h.events = append(h.events, Event{Proc: proc, Addr: addr, Write: true, Value: val, Old: old})
}

// Append appends an arbitrary event.
func (h *History) Append(e Event) { h.events = append(h.events, e) }

// Events returns the underlying event log in observation order. The
// slice is owned by the history; callers must not modify it.
func (h *History) Events() []Event { return h.events }

// Len returns the event count.
func (h *History) Len() int { return len(h.events) }

// Procs returns the number of processors appearing in the history
// (max Proc + 1).
func (h *History) Procs() int {
	n := 0
	for _, e := range h.events {
		if e.Proc+1 > n {
			n = e.Proc + 1
		}
	}
	return n
}

// Reset empties the history, retaining capacity.
func (h *History) Reset() { h.events = h.events[:0] }

// CopyFrom makes h a copy of src, retaining h's capacity.
func (h *History) CopyFrom(src *History) { h.events = append(h.events[:0], src.events...) }

// String renders the history one event per line, in observation order.
func (h *History) String() string {
	var b []byte
	for _, e := range h.events {
		b = append(b, e.String()...)
		b = append(b, '\n')
	}
	return string(b)
}
