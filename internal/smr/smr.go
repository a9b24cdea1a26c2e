// Package smr defines the uniform interface all safe-memory-reclamation
// schemes in this repository implement, together with the property
// metadata the ERA machinery classifies them by.
//
// The interface mirrors Definition 5.3 of the paper: a reclamation scheme
// is an object whose API operations are inserted (1) at operation begin and
// end, (2) as replacements for alloc() and retire(), and (3) as
// replacements for primitive memory accesses. Data structures are written
// once against this interface; whether a scheme is *easily integrated* is
// then visible in its behaviour: schemes that never request control-flow
// restarts (rollbacks) satisfy the definition, schemes that do (VBR, NBR)
// do not.
//
// # Integration contract for data structures
//
//   - Payload word 0 holds the key; link words hold mem.Ref values.
//   - Shared-node accesses go through Read/ReadPtr/Write/CAS/CASPtr.
//     Initialization of still-local nodes may use Write (schemes pass it
//     through).
//   - ReadPtr's idx names the protection slot to use (hazard-pointer
//     rotation); schemes without per-pointer protection ignore it.
//   - Before the first shared write of an operation, call Reserve with
//     every node reference the write phase will dereference (the
//     neutralization-based scheme publishes them; others ignore it).
//   - Whenever a guarded call reports ok == false, the operation must drop
//     all node references obtained so far and restart from its entry point
//     (the paper's rollback to a checkpoint).
package smr

import (
	"sync/atomic"

	"repro/internal/mem"
)

// RobustnessClass is a scheme's claimed robustness level per Definitions
// 5.1 and 5.2 of the paper.
type RobustnessClass uint8

// Robustness classes.
const (
	// NotRobust: a stalled thread can prevent reclamation of an unbounded
	// number of retired nodes (EBR).
	NotRobust RobustnessClass = iota
	// WeaklyRobust: the number of unreclaimable retired nodes is bounded
	// by a polynomial in max_active times the thread count (IBR).
	WeaklyRobust
	// Robust: the bound is asymptotically smaller than max_active times
	// the thread count (HP, VBR, NBR).
	Robust
)

// String returns the class name.
func (r RobustnessClass) String() string {
	switch r {
	case Robust:
		return "robust"
	case WeaklyRobust:
		return "weakly-robust"
	}
	return "not-robust"
}

// ApplicabilityClass is a scheme's claimed applicability level per
// Definitions 5.4–5.6.
type ApplicabilityClass uint8

// Applicability classes.
const (
	// Restricted: not applicable to all access-aware implementations
	// (HP, IBR, HE fail on Harris's linked-list; Appendix E). It is what
	// excludes a scheme from the structures whose searches traverse
	// retired nodes (registry.Applicable).
	Restricted ApplicabilityClass = iota
	// WidelyApplicable: applicable to every access-aware implementation
	// (NBR, VBR).
	WidelyApplicable
	// StronglyApplicable: applicable to every plain implementation
	// (EBR; Appendix A).
	StronglyApplicable
	// Unsafe: not an SMR at all (the immediate-free baseline).
	Unsafe
)

// String returns the class name.
func (a ApplicabilityClass) String() string {
	switch a {
	case WidelyApplicable:
		return "wide"
	case StronglyApplicable:
		return "strong"
	case Unsafe:
		return "unsafe"
	}
	return "restricted"
}

// Props is the static property sheet of a scheme. The ERA integration
// classifier (Definition 5.3) derives ease of integration from the
// Requires* fields, and the empirical harness validates the claims.
type Props struct {
	// RequiresRollback reports that guarded accesses may return ok=false,
	// demanding a control-flow restart. This violates Condition 4 of
	// Definition 5.3 (well-formedness of the integrated implementation).
	RequiresRollback bool
	// RequiresPhases reports that the scheme needs the read/write phase
	// discipline of access-aware implementations (Appendix C), including
	// Reserve calls before write phases.
	RequiresPhases bool
	// SelfContained is false when the real scheme needs OS or hardware
	// support (signals for NBR, wide CAS for VBR); the simulation
	// substitutes for it (see DESIGN.md).
	SelfContained bool
	// TypePreserving reports that the scheme relies on reclaimed memory
	// staying in program space for re-allocation to the same node type
	// (the optimistic schemes: their discarded stale reads must not
	// fault). Arenas hosting such a scheme must use mem.Reuse.
	TypePreserving bool
	// MetaWordsUsed is how many scheme-private per-node words the scheme
	// adds to the layout (allowed by Condition 5 of Definition 5.3).
	MetaWordsUsed int
	// Robustness is the claimed robustness class.
	Robustness RobustnessClass
	// Applicability is the claimed applicability class.
	Applicability ApplicabilityClass
}

// Stats counts scheme-level events of interest to the monitors.
type Stats struct {
	// Restarts is the number of ok=false results handed to the data
	// structure (rollbacks taken).
	Restarts atomic.Uint64
	// StaleUses is the number of times the scheme let a value read
	// through an invalid reference escape to the data structure. Any
	// nonzero value is a safety violation for the scheme (Definition
	// 4.2, Condition 3).
	StaleUses atomic.Uint64
	// Neutralizations is the number of simulated signals taken (NBR).
	Neutralizations atomic.Uint64
	// Scans is the number of reclamation scans performed.
	Scans atomic.Uint64
}

// StatsSnapshot is a plain copy of Stats.
type StatsSnapshot struct {
	Restarts, StaleUses, Neutralizations, Scans uint64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Restarts:        s.Restarts.Load(),
		StaleUses:       s.StaleUses.Load(),
		Neutralizations: s.Neutralizations.Load(),
		Scans:           s.Scans.Load(),
	}
}

// Scheme is a safe memory reclamation scheme bound to one arena and a
// fixed thread count. Thread ids must each be driven by a single goroutine
// at a time.
type Scheme interface {
	// Name returns the scheme's short name ("ebr", "hp", ...).
	Name() string
	// Heap returns the arena the scheme is bound to.
	Heap() *mem.Arena
	// Props returns the scheme's static property sheet.
	Props() Props
	// Stats returns the scheme's event counters.
	Stats() *Stats

	// BeginOp brackets the start of a data-structure operation.
	BeginOp(tid int)
	// EndOp brackets the end of a data-structure operation.
	EndOp(tid int)

	// Alloc allocates a node (replacement for alloc()).
	Alloc(tid int) (mem.Ref, error)
	// Retire announces a detached node as a reclamation candidate
	// (replacement for retire()). The scheme decides when the node is
	// actually reclaimed.
	Retire(tid int, r mem.Ref)

	// Read performs a guarded load of payload word w of node r.
	Read(tid int, r mem.Ref, w int) (val uint64, ok bool)
	// ReadPtr performs a guarded load of the reference stored in payload
	// word w of node src, establishing whatever protection the scheme
	// uses, in protection slot idx. The returned reference preserves the
	// mark bit.
	ReadPtr(tid int, idx int, src mem.Ref, w int) (tgt mem.Ref, ok bool)
	// Write performs a guarded store of a scalar word.
	Write(tid int, r mem.Ref, w int, v uint64) (ok bool)
	// WritePtr performs a guarded store of a link word (schemes that
	// track links, such as reference counting, hook it).
	WritePtr(tid int, r mem.Ref, w int, v mem.Ref) (ok bool)
	// CAS performs a guarded compare-and-swap of a scalar word.
	CAS(tid int, r mem.Ref, w int, old, new uint64) (swapped bool, ok bool)
	// CASPtr performs a guarded compare-and-swap of a link word.
	CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (swapped bool, ok bool)
	// Reserve publishes the references the upcoming write phase will
	// dereference.
	Reserve(tid int, refs ...mem.Ref) (ok bool)
	// Flush makes the scheme attempt reclamation of thread tid's retire
	// list immediately (used by harnesses between rounds; not part of
	// the paper's API surface).
	Flush(tid int)
}

// Meta word layout shared by the schemes (each arena serves one scheme, so
// words can be reused across schemes without collision).
const (
	// MetaBirth is the era/epoch at allocation (IBR, HE).
	MetaBirth = 0
	// MetaRetire is the era/epoch at retirement (IBR, HE, EBR).
	MetaRetire = 1
	// MetaVersion is the node version (VBR) or reference count (RC).
	MetaVersion = 2
	// MetaSpare is scratch space.
	MetaSpare = 3
	// MetaWords is the number of scheme words every arena must provide.
	MetaWords = 4
)
