// Package ebr implements epoch-based reclamation, the seminal scheme of
// Fraser and Harris.
//
// EBR is the paper's witness for "easy integration + strong applicability"
// (Appendix A): its API is exactly beginOp/endOp/alloc/retire, all reads
// and writes pass through untouched, and it is safe for *every* plain
// implementation. Its price is robustness: a thread that stalls inside an
// operation pins its announced epoch forever, so nodes retired from then
// on are never reclaimed (Section 5.1: "EBR is not even weakly robust").
package ebr

import (
	"errors"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/smr"
)

type pad [56]byte

type announcement struct {
	// epoch<<1 | active
	word atomic.Uint64
	_    pad
}

// EBR is the epoch-based reclamation scheme.
type EBR struct {
	smr.Base
	epoch    atomic.Uint64
	announce []announcement
	// opsSinceAdvance throttles epoch-advance attempts.
	counters []counter
}

type counter struct {
	n uint64
	_ pad
}

const advancePeriod = 16

var _ smr.Scheme = (*EBR)(nil)

// New builds an EBR instance over arena a for n threads. threshold <= 0
// selects the default retire-list scan threshold.
func New(a *mem.Arena, n, threshold int) *EBR {
	e := &EBR{
		Base:     smr.NewBase(a, n, threshold),
		announce: make([]announcement, n),
		counters: make([]counter, n),
	}
	e.epoch.Store(2) // start above the reclamation horizon
	return e
}

// Name implements smr.Scheme.
func (e *EBR) Name() string { return "ebr" }

// Props implements smr.Scheme.
func (e *EBR) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		MetaWordsUsed: 1, // retire epoch
		Robustness:    smr.NotRobust,
		Applicability: smr.StronglyApplicable,
	}
}

// BeginOp announces the current global epoch and marks the thread active.
func (e *EBR) BeginOp(tid int) {
	e.announce[tid].word.Store(e.epoch.Load()<<1 | 1)
}

// EndOp announces a quiescent state.
func (e *EBR) EndOp(tid int) {
	e.announce[tid].word.Store(e.epoch.Load() << 1)
}

// Rebracket renews the bracket inside a fused window with one store:
// re-announcing the current epoch is exactly EndOp followed by BeginOp
// (the transient quiescent announcement between them is unobservable —
// reclaimers only compare announced epochs against the grace bound).
func (e *EBR) Rebracket(tid int) {
	e.announce[tid].word.Store(e.epoch.Load()<<1 | 1)
}

// tryAdvance increments the global epoch if every active thread has
// announced it.
func (e *EBR) tryAdvance() {
	cur := e.epoch.Load()
	for i := range e.announce {
		w := e.announce[i].word.Load()
		if w&1 == 1 && w>>1 != cur {
			return // a straggler pins the epoch
		}
	}
	e.epoch.CompareAndSwap(cur, cur+1)
}

// Alloc implements smr.Scheme. On an exhausted heap it flushes tid's
// retire list and tries once more: scans run only on retire, and a thread
// whose allocations fail may retire nothing, so a backlog that filled the
// heap while the epoch was pinned would otherwise outlive the pin.
func (e *EBR) Alloc(tid int) (mem.Ref, error) {
	r, err := e.Arena.Alloc(tid)
	if errors.Is(err, mem.ErrOOM) {
		e.Flush(tid)
		r, err = e.Arena.Alloc(tid)
	}
	return r, err
}

// Retire stamps the node with the current epoch and appends it to the
// thread's retire list; full lists trigger an advance attempt and a scan.
func (e *EBR) Retire(tid int, r mem.Ref) {
	e.Arena.MetaStore(r.Slot(), smr.MetaRetire, e.epoch.Load())
	if e.Arena.Retire(tid, r) != nil {
		return
	}
	if e.PushRetired(tid, r) {
		e.tryAdvance()
		e.scan(tid)
	}
}

// scan reclaims every node in tid's retire list whose retire epoch is at
// least two epochs old: every thread active then has since announced a
// newer epoch or quiescence, so no reference to the node survives. The
// list is in retire-epoch order, so those nodes are its front.
func (e *EBR) scan(tid int) { e.ReclaimExpired(tid, e.epoch.Load()) }

// Flush attempts an epoch advance and a scan regardless of list length.
func (e *EBR) Flush(tid int) {
	e.tryAdvance()
	e.scan(tid)
}

// Read implements smr.Scheme; EBR leaves reads untouched.
func (e *EBR) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	return e.TransparentRead(tid, r, w)
}

// ReadPtr implements smr.Scheme; EBR needs no per-pointer protection.
func (e *EBR) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	e.maybeAdvance(tid)
	return e.TransparentReadPtr(tid, src, w)
}

func (e *EBR) maybeAdvance(tid int) {
	c := &e.counters[tid]
	c.n++
	if c.n%advancePeriod == 0 {
		e.tryAdvance()
	}
}

// Write implements smr.Scheme.
func (e *EBR) Write(tid int, r mem.Ref, w int, v uint64) bool {
	return e.TransparentWrite(tid, r, w, v)
}

// CAS implements smr.Scheme.
func (e *EBR) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	return e.TransparentCAS(tid, r, w, old, new)
}

// CASPtr implements smr.Scheme.
func (e *EBR) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return e.TransparentCAS(tid, r, w, uint64(old), uint64(new))
}

// WritePtr implements smr.Scheme.
func (e *EBR) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return e.TransparentWrite(tid, r, w, uint64(v))
}

// Reserve implements smr.Scheme; EBR has no reservations.
func (e *EBR) Reserve(tid int, refs ...mem.Ref) bool { return true }
