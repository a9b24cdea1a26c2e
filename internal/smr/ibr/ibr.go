// Package ibr implements 2GE interval-based reclamation (Wen, Izraelevitz,
// Cai, Beadle & Scott, PPoPP 2018).
//
// Every node carries a birth era and a retire era; every thread publishes
// a reservation interval [lower, upper] of eras it may be holding nodes
// from. A retired node is reclaimable when its lifetime interval
// [birth, retire] intersects no thread's reservation. The global era
// advances every few allocations, so the number of nodes alive during any
// reservation is bounded by the allocation rate times the interval length
// — which is how IBR earns *weak* robustness (Section 5.1 of the paper:
// "the number of retired nodes in a configuration is linear in
// max_active·N").
//
// Like HP and HE, IBR is easily integrated but not widely applicable: a
// traversal that entered the structure in era e never protects nodes born
// after e that are retired before the traversal reaches them (Appendix E).
package ibr

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/smr"
)

type pad [48]byte

type reservation struct {
	lower atomic.Uint64
	upper atomic.Uint64
	_     pad
}

// epochFreq is the number of allocations between era advances.
const epochFreq = 8

// noReservation marks an inactive thread.
const noReservation = ^uint64(0)

// IBR is the 2GE interval-based reclamation scheme.
type IBR struct {
	smr.Base
	era    atomic.Uint64
	resv   []reservation
	allocs []allocCounter
	snaps  [][]interval // per-thread scan scratch: every reservation
}

// interval is a reservation as one scan read it.
type interval struct{ lower, upper uint64 }

type allocCounter struct {
	n uint64
	_ pad
}

var _ smr.Scheme = (*IBR)(nil)

// New builds an IBR instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *IBR {
	i := &IBR{
		Base:   smr.NewBase(a, n, threshold),
		resv:   make([]reservation, n),
		allocs: make([]allocCounter, n),
		snaps:  make([][]interval, n),
	}
	i.era.Store(1)
	for t := range i.snaps {
		i.snaps[t] = make([]interval, n)
	}
	for t := range i.resv {
		i.resv[t].lower.Store(noReservation)
		i.resv[t].upper.Store(noReservation)
	}
	return i
}

// Name implements smr.Scheme.
func (i *IBR) Name() string { return "ibr" }

// Props implements smr.Scheme.
func (i *IBR) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		MetaWordsUsed: 2, // birth and retire eras
		Robustness:    smr.WeaklyRobust,
		Applicability: smr.Restricted,
	}
}

// BeginOp starts a reservation at the current era.
func (i *IBR) BeginOp(tid int) {
	e := i.era.Load()
	i.resv[tid].lower.Store(e)
	i.resv[tid].upper.Store(e)
}

// EndOp clears the reservation.
func (i *IBR) EndOp(tid int) {
	i.resv[tid].lower.Store(noReservation)
	i.resv[tid].upper.Store(noReservation)
}

// Rebracket renews the bracket inside a fused window: collapse the
// reservation interval back to the current era (two stores instead of
// EndOp+BeginOp's four). Nodes retired before the renewal stop being
// covered, exactly as if the thread had gone quiescent and restarted.
func (i *IBR) Rebracket(tid int) {
	e := i.era.Load()
	i.resv[tid].lower.Store(e)
	i.resv[tid].upper.Store(e)
}

// Alloc stamps the node's birth era and advances the era every epochFreq
// allocations.
func (i *IBR) Alloc(tid int) (mem.Ref, error) {
	r, err := i.Arena.Alloc(tid)
	if err != nil {
		return r, err
	}
	e := i.era.Load()
	i.Arena.MetaStore(r.Slot(), smr.MetaBirth, e)
	c := &i.allocs[tid]
	c.n++
	if c.n%epochFreq == 0 {
		i.era.Add(1)
	}
	return r, nil
}

// Retire stamps the node's retire era.
func (i *IBR) Retire(tid int, r mem.Ref) {
	i.Arena.MetaStore(r.Slot(), smr.MetaRetire, i.era.Load())
	if i.Arena.Retire(tid, r) != nil {
		return
	}
	if i.PushRetired(tid, r) {
		i.scan(tid)
	}
}

// scan reclaims retired nodes whose [birth, retire] interval intersects no
// thread's reservation interval.
func (i *IBR) scan(tid int) {
	snap := i.snaps[tid]
	for t := range snap {
		snap[t] = interval{i.resv[t].lower.Load(), i.resv[t].upper.Load()}
	}
	l := &i.Lists[tid].Refs
	scanned := len(*l)
	kept := (*l)[:0]
	for _, r := range *l {
		birth := i.Arena.MetaLoad(r.Slot(), smr.MetaBirth)
		retire := i.Arena.MetaLoad(r.Slot(), smr.MetaRetire)
		conflict := false
		for _, v := range snap {
			if v.lower == noReservation {
				continue
			}
			if birth <= v.upper && v.lower <= retire {
				conflict = true
				break
			}
		}
		if conflict {
			kept = append(kept, r)
		} else {
			_ = i.Arena.Reclaim(tid, r)
		}
	}
	*l = kept
	i.NoteScan(tid, scanned, scanned-len(kept))
}

// Flush implements smr.Scheme.
func (i *IBR) Flush(tid int) { i.scan(tid) }

// Read implements smr.Scheme.
func (i *IBR) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	return i.TransparentRead(tid, r, w)
}

// ReadPtr extends the thread's reservation to the current era around the
// load, retrying until the era is stable across it. A node that was alive
// at any point inside the reservation interval is protected; a node born
// later and already retired (the Harris traversal case) is not.
func (i *IBR) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	for {
		e1 := i.era.Load()
		if i.resv[tid].upper.Load() < e1 {
			i.resv[tid].upper.Store(e1)
		}
		v, err := i.Arena.Load(tid, src.WithoutMark(), w)
		if err != nil {
			i.S.StaleUses.Add(1)
			return mem.Ref(v), true
		}
		if i.era.Load() == e1 {
			return mem.Ref(v), true
		}
	}
}

// Write implements smr.Scheme.
func (i *IBR) Write(tid int, r mem.Ref, w int, v uint64) bool {
	return i.TransparentWrite(tid, r, w, v)
}

// CAS implements smr.Scheme.
func (i *IBR) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	return i.TransparentCAS(tid, r, w, old, new)
}

// CASPtr implements smr.Scheme.
func (i *IBR) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return i.TransparentCAS(tid, r, w, uint64(old), uint64(new))
}

// WritePtr implements smr.Scheme.
func (i *IBR) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return i.TransparentWrite(tid, r, w, uint64(v))
}

// Reserve implements smr.Scheme.
func (i *IBR) Reserve(tid int, refs ...mem.Ref) bool { return true }
