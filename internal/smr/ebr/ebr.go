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
		announce: make([]announcement, n),
		counters: make([]counter, n),
	}
	e.Base = smr.NewBase(a, n, threshold, e.scan)
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

// Retire stamps the node with the current epoch and appends it to the
// thread's retire list; full lists trigger an advance attempt and a scan.
func (e *EBR) Retire(tid int, r mem.Ref) {
	e.Arena.MetaStore(r.Slot(), smr.MetaRetire, e.epoch.Load())
	e.Base.Retire(tid, r)
}

// scan attempts an epoch advance, then reclaims every node in tid's
// retire list whose retire epoch is at least two epochs old: every thread
// active then has since announced a newer epoch or quiescence, so no
// reference to the node survives. The list is in retire-epoch order, so
// those nodes are its front.
func (e *EBR) scan(tid int) {
	e.tryAdvance()
	e.ReclaimExpired(tid, e.epoch.Load())
}

// ReadPtr implements smr.Scheme; EBR needs no per-pointer protection.
func (e *EBR) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	e.maybeAdvance(tid)
	return e.Base.ReadPtr(tid, idx, src, w)
}

func (e *EBR) maybeAdvance(tid int) {
	c := &e.counters[tid]
	c.n++
	if c.n%advancePeriod == 0 {
		e.tryAdvance()
	}
}
