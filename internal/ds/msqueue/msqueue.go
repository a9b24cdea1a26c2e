// Package msqueue implements the Michael & Scott lock-free FIFO queue.
//
// The queue broadens the applicability experiments beyond set objects: it
// retires nodes from the *front* (a dequeued dummy is retired by the
// dequeuer) and never traverses retired nodes, so every scheme in the
// repository — including the protection-based family — is applicable to
// it. The global Head and Tail pointers live in a never-retired anchor
// node so that they, too, are accessed through the scheme barriers.
package msqueue

import (
	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
)

// Anchor node layout: word 0 = Head, word 1 = Tail.
const (
	wHead = 0
	wTail = 1
)

// Node layout: word 0 = value, word 1 = next.
const (
	wVal  = 0
	wNext = 1
)

// Queue is the Michael & Scott queue.
type Queue struct {
	ds.Instr
	s      smr.Scheme
	anchor mem.Ref
}

var _ ds.Queue = (*Queue)(nil)

// New builds an empty queue (one dummy node) over scheme s.
func New(s smr.Scheme, opt ds.Options) (*Queue, error) {
	q := &Queue{Instr: ds.Instr{Opt: opt, A: s.Heap()}, s: s}
	ds.RegisterLinks(s, []int{wNext})
	anchor, err := ds.NewSentinel(s, 0, 0)
	if err != nil {
		return nil, err
	}
	dummy, err := ds.NewSentinel(s, 0, 0)
	if err != nil {
		return nil, err
	}
	q.anchor = anchor
	if !s.WritePtr(0, anchor, wHead, dummy) || !s.WritePtr(0, anchor, wTail, dummy) {
		return nil, ds.ErrCorrupted
	}
	return q, nil
}

// Name implements ds.Queue.
func (q *Queue) Name() string { return "msqueue" }

const maxAttempts = 1 << 22

// Enqueue implements ds.Queue.
func (q *Queue) Enqueue(tid int, v int64) error {
	q.s.BeginOp(tid)
	defer q.s.EndOp(tid)
	n, err := q.s.Alloc(tid)
	if err != nil {
		return err
	}
	q.s.Write(tid, n, wVal, uint64(v))
	q.s.WritePtr(tid, n, wNext, mem.NilRef)
	if err := q.A.MarkShared(n); err != nil {
		return err
	}
	for i := 0; i < maxAttempts; i++ {
		q.Phase(tid, ds.PhaseRead)
		tail, ok := q.s.ReadPtr(tid, 0, q.anchor, wTail)
		if !ok {
			continue
		}
		next, ok := q.s.ReadPtr(tid, 1, tail, wNext)
		if !ok {
			continue
		}
		if !next.IsNil() {
			// Tail lags; help swing it.
			q.s.CASPtr(tid, q.anchor, wTail, tail, next)
			continue
		}
		if !q.s.Reserve(tid, tail) {
			continue
		}
		q.Phase(tid, ds.PhaseWrite)
		swapped, ok := q.s.CASPtr(tid, tail, wNext, mem.NilRef, n)
		if !ok || !swapped {
			continue
		}
		q.s.CASPtr(tid, q.anchor, wTail, tail, n)
		return nil
	}
	return ds.ErrCorrupted
}

// Dequeue implements ds.Queue. The dequeued value travels in the *new*
// dummy; the old dummy is retired by the successful dequeuer.
func (q *Queue) Dequeue(tid int) (int64, bool, error) {
	q.s.BeginOp(tid)
	defer q.s.EndOp(tid)
	for i := 0; i < maxAttempts; i++ {
		q.Phase(tid, ds.PhaseRead)
		head, ok := q.s.ReadPtr(tid, 0, q.anchor, wHead)
		if !ok {
			continue
		}
		tail, ok := q.s.ReadPtr(tid, 1, q.anchor, wTail)
		if !ok {
			continue
		}
		next, ok := q.s.ReadPtr(tid, 2, head, wNext)
		if !ok {
			continue
		}
		// Validate head is still head (Michael & Scott's consistency
		// check; with HP this also certifies the protection).
		h2, ok := q.s.Read(tid, q.anchor, wHead)
		if !ok || mem.Ref(h2) != head {
			continue
		}
		if head == tail {
			if next.IsNil() {
				return 0, false, nil // empty
			}
			q.s.CASPtr(tid, q.anchor, wTail, tail, next)
			continue
		}
		if next.IsNil() {
			continue // transient: head != tail but next not yet visible
		}
		v, ok := q.s.Read(tid, next, wVal)
		if !ok {
			continue
		}
		if !q.s.Reserve(tid, head, next) {
			continue
		}
		q.Phase(tid, ds.PhaseWrite)
		swapped, ok := q.s.CASPtr(tid, q.anchor, wHead, head, next)
		if !ok || !swapped {
			continue
		}
		q.s.Retire(tid, head)
		return int64(v), true, nil
	}
	return 0, false, ds.ErrCorrupted
}
