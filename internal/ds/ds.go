// Package ds defines the abstract-data-type interfaces implemented by the
// repository's concurrent data structures, and the shared node layout and
// instrumentation helpers.
//
// Every structure is a *plain implementation* in the paper's sense
// (Section 4.2): the algorithm includes retire() calls at the points where
// nodes are detached, and all shared-memory accesses are expressed through
// the smr.Scheme barrier interface, so any reclamation scheme can be
// integrated without touching the algorithm.
package ds

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/smr"
)

// Shared node layout: word 0 is the key (immutable once shared), word 1
// the next link. Structures with more links (the skip list) use words
// 1..n.
const (
	WKey  = 0
	WNext = 1
)

// Sentinel keys for list-based sets ("head and tail sentinels with the
// respective -inf and +inf keys").
const (
	KeyMin = math.MinInt64
	KeyMax = math.MaxInt64
)

// ErrCorrupted reports that a structure reached an impossible state —
// only ever observed when an unsafe scheme corrupted memory.
var ErrCorrupted = errors.New("ds: structure corrupted")

// ErrTraversalGuard reports that one operation exhausted its traversal
// step budget — a typed, counted error rather than a silent near-stall
// that pins the op's reclamation epoch for the whole walk. Guard errors
// also match ErrCorrupted under errors.Is, so callers that already
// escalate corruption escalate guard trips too.
var ErrTraversalGuard = errors.New("ds: traversal step budget exhausted")

// GuardError is the typed maxSteps-exhaustion error: which structure and
// operation tripped the guard, and the traversal counters at the trip.
type GuardError struct {
	Structure string
	Op        string
	Steps     uint64
	Restarts  uint64
}

func (e *GuardError) Error() string {
	return fmt.Sprintf("ds: %s.%s traversal step budget exhausted (%d steps, %d restarts)",
		e.Structure, e.Op, e.Steps, e.Restarts)
}

// Is matches both the guard sentinel and ErrCorrupted: a tripped guard is
// the structure declaring it cannot make progress, which every existing
// caller treats as corruption-grade.
func (e *GuardError) Is(target error) bool {
	return target == ErrTraversalGuard || target == ErrCorrupted
}

// Set is the integer-set object of Section 3 of the paper.
type Set interface {
	// Name identifies the implementation ("harris", "michael", ...).
	Name() string
	// Insert adds key; false if already present.
	Insert(tid int, key int64) (bool, error)
	// Delete removes key; false if absent.
	Delete(tid int, key int64) (bool, error)
	// Contains reports membership.
	Contains(tid int, key int64) (bool, error)
}

// Iterator is the snapshot contract of the traversal overhaul: services
// read a structure's live contents in O(live keys) by scanning the
// structure itself, instead of probing a key universe through Contains.
//
// IterateFrom calls fn for each key ≥ lo until fn returns false or the
// scan completes; Iterate is IterateFrom(tid, KeyMin, fn). The contract,
// shared by every implementation and verified by the dstest suite, holds
// for the keys ≥ lo, and no key < lo is ever reported:
//
//   - Every key that is continuously present for the whole call is
//     reported exactly once. On a quiescent structure that makes the scan
//     a single exact sweep — the fast path.
//   - No key is ever reported twice, even under concurrent mutation:
//     emission is monotonic per region (globally ascending for ordered
//     structures, per-bucket for partitioned ones), and interference makes
//     the scan resume from the last emitted key, never rewind — the
//     concurrent fallback.
//   - Keys inserted or deleted during the call may or may not be reported.
//
// A scan runs inside the scheme's operation brackets on the caller's tid
// (which must not be running another operation), re-bracketing in batches
// so a long scan never pins a reclamation epoch for the whole structure.
//
// How much of the structure a scan from lo reads is the implementation's
// business: the skip list seeks to lo through its tower, so a range leg
// costs O(log n + keys in range); the lists, the hashmap and the tree walk
// as a full scan does and suppress the keys below lo.
type Iterator interface {
	Iterate(tid int, fn func(key int64) bool) error
	IterateFrom(tid int, lo int64, fn func(key int64) bool) error
}

// IterFloor is the emission cursor a scan from lo starts with. The
// ordered iterators report only keys strictly above their cursor, so the
// scan starts just below lo; KeyMin, the head sentinel's key, is never
// reported.
func IterFloor(lo int64) int64 {
	if lo == KeyMin {
		return KeyMin
	}
	return lo - 1
}

// TravReporter exposes a structure's traversal counters. Every structure
// embedding Instr implements it; partitioned structures merge their
// buckets' counters.
type TravReporter interface {
	TravSnapshot() TravSnapshot
}

// Queue is a FIFO queue object.
type Queue interface {
	Name() string
	Enqueue(tid int, v int64) error
	// Dequeue returns (value, true) or (0, false) when empty.
	Dequeue(tid int) (int64, bool, error)
}

// Stack is a LIFO stack object.
type Stack interface {
	Name() string
	Push(tid int, v int64) error
	Pop(tid int) (int64, bool, error)
}

// Options carries cross-cutting instrumentation for a structure.
type Options struct {
	// Gate, when non-nil, receives Hit calls at named execution points
	// (the adversarial scheduler).
	Gate sched.Gate
	// Phases, when true and the arena traces, annotates read/write phase
	// boundaries into the trace for the access-aware verifier.
	Phases bool
	// OnGuardTrip, when non-nil, receives every step-budget exhaustion
	// right after it is counted — the observability plane's flight
	// recorder hook. Called on the tripping operation's goroutine; must
	// be cheap and non-blocking.
	OnGuardTrip func(structure, op string, steps, restarts uint64)
}

// Named execution points (sched.Gate hits).
const (
	// PointSearchHead fires right after a search read the entry point's
	// next pointer; arg is the searched key. This is where Figure 1
	// stalls T1.
	PointSearchHead = "search:head"
	// PointSearchVisit fires at each unmarked node visited during a
	// search; arg is the node's key. This is where Figure 2 stalls T1.
	PointSearchVisit = "search:visit"
	// PointSearchVisitMarked fires at each marked node traversed
	// (Harris only); arg is the node's key.
	PointSearchVisitMarked = "search:visit-marked"
	// PointSearchStep fires at the top of each traversal step, before the
	// current node's next pointer is read; arg is the mem.Ref of the
	// current node (compare with Ref.SameNode). This is where Figure 2
	// stalls T1: it holds (and protects) a reference to node 15 but has
	// not yet read 15's next pointer.
	PointSearchStep = "search:step"
	// PointDeleteMarked fires right after a delete's successful marking
	// CAS, before the unlink attempt; arg is the victim's key. Figure 2
	// parks the two deleters here so both victims are marked before
	// either is unlinked.
	PointDeleteMarked = "delete:marked"
)

// TravStats is the per-structure traversal counter block: total steps
// (node visits), restarts, guard trips, and the worst single-operation
// step count. All fields are atomics; operations accumulate locally and
// fold in once per traversal, so the hot path stays off shared cache
// lines.
type TravStats struct {
	Steps      atomic.Uint64
	Restarts   atomic.Uint64
	GuardTrips atomic.Uint64
	MaxOpSteps atomic.Uint64
}

// Record folds one traversal's local counters into the shared block.
func (t *TravStats) Record(steps, restarts uint64) {
	if steps != 0 {
		t.Steps.Add(steps)
	}
	if restarts != 0 {
		t.Restarts.Add(restarts)
	}
	for {
		cur := t.MaxOpSteps.Load()
		if steps <= cur || t.MaxOpSteps.CompareAndSwap(cur, steps) {
			return
		}
	}
}

// TravSnapshot is a point-in-time copy of TravStats.
type TravSnapshot struct {
	Steps      uint64 `json:"steps"`
	Restarts   uint64 `json:"restarts"`
	GuardTrips uint64 `json:"guard_trips"`
	MaxOpSteps uint64 `json:"max_op_steps"`
}

// Snapshot copies the counters.
func (t *TravStats) Snapshot() TravSnapshot {
	return TravSnapshot{
		Steps:      t.Steps.Load(),
		Restarts:   t.Restarts.Load(),
		GuardTrips: t.GuardTrips.Load(),
		MaxOpSteps: t.MaxOpSteps.Load(),
	}
}

// Merge combines two snapshots (sums, max of maxes) — how partitioned
// structures aggregate their buckets.
func (s TravSnapshot) Merge(o TravSnapshot) TravSnapshot {
	s.Steps += o.Steps
	s.Restarts += o.Restarts
	s.GuardTrips += o.GuardTrips
	if o.MaxOpSteps > s.MaxOpSteps {
		s.MaxOpSteps = o.MaxOpSteps
	}
	return s
}

// Instr is the instrumentation half every structure embeds.
type Instr struct {
	Opt  Options
	A    *mem.Arena
	Trav TravStats
}

// TravSnapshot implements TravReporter for every embedding structure.
func (in *Instr) TravSnapshot() TravSnapshot { return in.Trav.Snapshot() }

// GuardTrip counts a step-budget exhaustion and builds its typed error.
func (in *Instr) GuardTrip(structure, op string, steps, restarts uint64) error {
	in.Trav.GuardTrips.Add(1)
	if in.Opt.OnGuardTrip != nil {
		in.Opt.OnGuardTrip(structure, op, steps, restarts)
	}
	return &GuardError{Structure: structure, Op: op, Steps: steps, Restarts: restarts}
}

// Hit forwards to the gate when one is installed.
func (in *Instr) Hit(tid int, point string, arg uint64) {
	if in.Opt.Gate != nil {
		in.Opt.Gate.Hit(tid, point, arg)
	}
}

// Phase annotates a phase boundary into the access trace when enabled.
func (in *Instr) Phase(tid int, phase string) {
	if in.Opt.Phases && in.A.Tracer() != nil {
		in.A.Tracer().Annotate(tid, phase)
	}
}

// Phase annotation strings consumed by the access-aware verifier.
// PhaseRead opens a read phase at an entry point; PhaseResume opens one at
// a node the thread still holds from its previous phase (a re-validated
// cached pred, the batch cursor, the node after an unlink) — the resume
// rule in package accessaware says when that is legal.
const (
	PhaseRead   = "phase:read"
	PhaseResume = "phase:resume"
	PhaseWrite  = "phase:write"
)

// RegisterLinks tells link-tracking schemes (reference counting) which
// payload words hold references.
func RegisterLinks(s smr.Scheme, words []int) {
	if la, ok := s.(interface{ SetLinkWords([]int) }); ok {
		la.SetLinkWords(words)
	}
}

// NewSentinel allocates a never-retired node (entry point) with the given
// key, outside any operation bracket.
func NewSentinel(s smr.Scheme, tid int, key int64) (mem.Ref, error) {
	r, err := s.Alloc(tid)
	if err != nil {
		return mem.NilRef, err
	}
	if !s.Write(tid, r, WKey, uint64(key)) {
		return mem.NilRef, ErrCorrupted
	}
	if err := s.Heap().MarkShared(r); err != nil {
		return mem.NilRef, err
	}
	return r, nil
}
