// Package hist records operation histories and checks them for
// linearizability against sequential specifications; it also provides the
// log-bucketed latency histogram (Latency) the experiments' closed-loop
// clients record request timings into.
//
// It implements the formalism of Section 3 of the paper: an execution is
// modelled by its history (the sub-sequence of operation invocation and
// response steps); a complete history is linearizable if some sequential
// ordering of its operations (a) belongs to the object's sequential
// specification and (b) respects the real-time order of non-overlapping
// operations. The checker is used by the applicability harness to validate
// condition (2) of Definition 5.4: the integrated implementation must be
// linearizable.
package hist

import (
	"fmt"
	"sync/atomic"
)

// OpKind names an abstract-data-type operation.
type OpKind uint8

// Operations of the set, queue and stack abstract data types.
const (
	OpInsert OpKind = iota
	OpDelete
	OpContains
	OpEnqueue
	OpDequeue
	OpPush
	OpPop
)

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpContains:
		return "contains"
	case OpEnqueue:
		return "enqueue"
	case OpDequeue:
		return "dequeue"
	case OpPush:
		return "push"
	case OpPop:
		return "pop"
	}
	return "?"
}

// Op is one complete operation in a history: an invocation step and its
// matching response step, with logical timestamps drawn from a global
// atomic counter (Inv < Res always; two operations overlap iff neither's
// Res precedes the other's Inv).
type Op struct {
	Tid  int
	Kind OpKind
	Key  int64
	// Ok is the boolean result (insert/delete/contains success, or
	// whether dequeue/pop returned a value).
	Ok bool
	// Val is the value returned by dequeue/pop when Ok.
	Val int64
	Inv int64
	Res int64
}

func (o Op) String() string {
	return fmt.Sprintf("T%d %s(%d)=%v,%d [%d,%d]", o.Tid, o.Kind, o.Key, o.Ok, o.Val, o.Inv, o.Res)
}

// Recorder collects per-thread operation records with globally ordered
// timestamps. Each thread id must be driven by one goroutine at a time;
// recording is then synchronization-free apart from the timestamp counter.
type Recorder struct {
	clock     atomic.Int64
	perThread []threadLog
}

// threadLog is one thread's records, padded to a cache line so threads
// appending side by side do not contend on each other's slice header.
type threadLog struct {
	ops []Op
	_   [40]byte
}

// NewRecorder builds a recorder for n threads, each with room for
// capacity operations before its record grows.
func NewRecorder(n, capacity int) *Recorder {
	r := &Recorder{perThread: make([]threadLog, n)}
	for tid := range r.perThread {
		r.perThread[tid].ops = make([]Op, 0, capacity)
	}
	return r
}

// PendingOp is a started-but-unfinished operation.
type PendingOp struct {
	op Op
}

// Begin records the invocation step of an operation by thread tid.
func (r *Recorder) Begin(tid int, kind OpKind, key int64) PendingOp {
	return PendingOp{op: Op{Tid: tid, Kind: kind, Key: key, Inv: r.clock.Add(1)}}
}

// End records the matching response step. Operations that never End (a
// stalled thread) simply do not appear in the history, which matches the
// paper's completion rule for pending operations without visible effects.
func (r *Recorder) End(tid int, p PendingOp, ok bool, val int64) {
	p.op.Ok = ok
	p.op.Val = val
	p.op.Res = r.clock.Add(1)
	r.perThread[tid].ops = append(r.perThread[tid].ops, p.op)
}

// History returns all complete operations of all threads.
func (r *Recorder) History() []Op {
	var all []Op
	for _, l := range r.perThread {
		all = append(all, l.ops...)
	}
	return all
}

// Reset clears the recorder (the clock keeps advancing, which is harmless).
func (r *Recorder) Reset() {
	for i := range r.perThread {
		r.perThread[i].ops = r.perThread[i].ops[:0]
	}
}

// WellFormed checks that each thread's sub-history is sequential: an
// alternating sequence of invocations and matching responses (Section 3 of
// the paper). The Recorder produces well-formed histories by construction;
// the check exists to validate externally assembled histories.
func WellFormed(ops []Op) error {
	perThread := map[int][]Op{}
	for _, o := range ops {
		perThread[o.Tid] = append(perThread[o.Tid], o)
	}
	for tid, tops := range perThread {
		var last int64 = -1
		for _, o := range tops {
			if o.Inv >= o.Res {
				return fmt.Errorf("hist: T%d operation %v has Inv >= Res", tid, o)
			}
			if o.Inv <= last {
				return fmt.Errorf("hist: T%d overlapping own operations at %v", tid, o)
			}
			last = o.Res
		}
	}
	return nil
}
