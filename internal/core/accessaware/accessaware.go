// Package accessaware implements the Appendix C verifier: it checks, from
// recorded per-thread access traces, that a data-structure implementation
// respects the read-phase/write-phase discipline that defines the class of
// access-aware implementations (originally from the NBR paper, formalized
// in Appendix C of the ERA paper).
//
// The two conditions, operationally:
//
//  1. During a read-only phase, a shared node may be dereferenced only if
//     a reference to it was obtained during the current phase — from an
//     entry point, a fresh allocation, or a link word of a node already
//     permitted in this phase (the paper's j-permitted chain).
//
//  2. During a write phase, every dereference (read or write) must target
//     a node that was permitted when the last read-only phase ended, or a
//     node still local to the thread.
//
// Retirements are not shared accesses and are exempt (Appendix C).
//
// The resume rule. A read phase annotated ds.PhaseResume instead of
// ds.PhaseRead starts with the permissions the thread held when its last
// phase ended, instead of none: after a read phase that is the phase's
// permitted set; after a write phase it is the sealed set plus the write
// phase's own allocations. A resume never reaches further back than the
// phase just ended, and a node this thread reclaimed since stays void.
// The lists use it to start a read phase at a cached predecessor — after
// losing an unlink CAS, at the fused batch's cursor, or (Michael) at the
// successor of a node just unlinked — instead of at the head. The rule is
// sound for the schemes the class is defined for because the structures
// keep three invariants around every resume:
//
//   - The anchor is re-validated before the walk goes on: its next
//     pointer must read back unmarked (or was just CASed from an unmarked
//     value), otherwise the find rewinds to the head under PhaseRead.
//   - No EndOp comes between the two phases: the batch cursor is dropped
//     at every bracket renewal, and an op's own resumes never cross its
//     bracket.
//   - No scheme rollback comes between them: every ok == false rewinds to
//     the head under a plain PhaseRead and drops the batch cursor.
//
// So whatever protected the anchor when the previous phase ended still
// protects it — a hazard slot, an epoch pin, an NBR reservation or, for
// an unreserved anchor, NBR's neutralization flag, which the first read
// of the resumed phase polls.
//
// Appendix D proves Harris's linked-list access-aware; the test suite
// replays that proof mechanically by tracing every operation and running
// this verifier, and shows a discipline-violating trace is rejected.
package accessaware

import (
	"fmt"

	"repro/internal/ds"
	"repro/internal/mem"
)

// Violation is one discipline breach found in a trace.
type Violation struct {
	// Thread is the violating thread id.
	Thread int
	// Index is the event's position in the thread's stream.
	Index int
	// Event is the violating access.
	Event mem.TraceEvent
	// Reason explains which condition broke.
	Reason string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("T%d event %d (%s slot %d word %d): %s",
		v.Thread, v.Index, v.Event.Kind, v.Event.Slot, v.Event.Word, v.Reason)
}

// Config configures a verification pass.
type Config struct {
	// Entries are the structure's entry-point nodes (sentinels, anchors):
	// dereferencing them is always permitted (they are global variables in
	// the paper's model and are never retired).
	Entries []mem.Ref
	// LinkWords are the payload word indices that hold node references;
	// loading one of them extends the permitted set with its target.
	LinkWords []int
}

type phase uint8

const (
	phaseRead phase = iota
	phaseWrite
)

// VerifyThread checks one thread's event stream against the discipline.
func VerifyThread(tid int, events []mem.TraceEvent, cfg Config) []Violation {
	entry := make(map[int]bool, len(cfg.Entries))
	for _, e := range cfg.Entries {
		entry[e.Slot()] = true
	}
	link := make(map[int]bool, len(cfg.LinkWords))
	for _, w := range cfg.LinkWords {
		link[w] = true
	}

	var violations []Violation
	local := make(map[int]bool)     // thread-allocated, assumed still local
	permitted := make(map[int]bool) // permitted in the current read phase
	sealed := make(map[int]bool)    // permitted when the last read phase ended
	ph := phaseRead

	allowed := func(set map[int]bool, slot int) bool {
		return entry[slot] || local[slot] || set[slot]
	}
	report := func(i int, ev mem.TraceEvent, reason string) {
		violations = append(violations, Violation{Thread: tid, Index: i, Event: ev, Reason: reason})
	}

	for i, ev := range events {
		switch ev.Kind {
		case mem.EvNote:
			switch ev.Note {
			case ds.PhaseRead:
				ph = phaseRead
				permitted = make(map[int]bool)
			case ds.PhaseResume:
				// The resume rule: permitted already holds what the last
				// phase ended with — a write phase only adds its
				// allocations to the sealed copy — so it carries over.
				ph = phaseRead
			case ds.PhaseWrite:
				ph = phaseWrite
				sealed = make(map[int]bool, len(permitted))
				for s := range permitted {
					sealed[s] = true
				}
			}
		case mem.EvAlloc:
			local[ev.Slot] = true
			permitted[ev.Slot] = true
		case mem.EvRetire:
			// Retirement is not a shared access (Appendix C); but a node
			// retired by this thread is certainly no longer local to it.
			delete(local, ev.Slot)
		case mem.EvReclaim:
			// Reclamation recycles the slot: any permission attached to
			// the old node is void.
			delete(local, ev.Slot)
			delete(permitted, ev.Slot)
			delete(sealed, ev.Slot)
		case mem.EvLoad:
			switch ph {
			case phaseRead:
				if !allowed(permitted, ev.Slot) {
					report(i, ev, "read-phase load of a node not permitted in this phase (condition 1)")
				}
				if link[ev.Word] {
					if r := mem.Ref(ev.Value).WithoutMark(); !r.IsNil() {
						permitted[r.Slot()] = true
					}
				}
			case phaseWrite:
				if !allowed(sealed, ev.Slot) {
					report(i, ev, "write-phase load of a node not permitted at the last read-phase end (condition 2)")
				}
			}
		case mem.EvStore, mem.EvCAS:
			switch ph {
			case phaseRead:
				if !local[ev.Slot] {
					report(i, ev, "shared-memory write during a read-only phase")
				}
			case phaseWrite:
				if !allowed(sealed, ev.Slot) {
					report(i, ev, "write-phase update of a node not permitted at the last read-phase end (condition 3)")
				}
			}
		}
	}
	return violations
}

// Verify checks every thread's stream of a tracing arena.
func Verify(a *mem.Arena, threads int, cfg Config) []Violation {
	tr := a.Tracer()
	if tr == nil {
		return []Violation{{Thread: -1, Reason: "arena does not trace (mem.Config.Trace=false)"}}
	}
	var all []Violation
	for tid := 0; tid < threads; tid++ {
		all = append(all, VerifyThread(tid, tr.Streams[tid], cfg)...)
	}
	return all
}
