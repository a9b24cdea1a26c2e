// Package he implements hazard eras (Ramalhete & Correia, SPAA 2017).
//
// Hazard eras marries hazard pointers with epochs: instead of publishing
// the address it is about to dereference, a thread publishes the *era* in
// which it read the pointer, one era per hazard slot. A retired node is
// reclaimable when no published era falls inside its [birth, retire]
// lifetime. Protection therefore costs one store per read (like HP) but
// protects every node alive at that era at once.
//
// HE is robust (the retired backlog is bounded by eras pinned by hazard
// slots times the allocation rate per era) and easily integrated, and —
// like HP and IBR — not widely applicable: eras published during a Harris
// traversal do not cover nodes born after the traversal's eras that die
// before it reaches them (Appendix E of the paper).
package he

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/smr"
)

type pad [56]byte

type eraSlot struct {
	era atomic.Uint64
	_   pad
}

// K is the number of era slots per thread.
const K = 8

// noEra marks an empty slot.
const noEra = uint64(0)

// epochFreq is the number of retirements between era advances.
const epochFreq = 8

// HE is the hazard-eras scheme.
type HE struct {
	smr.Base
	era     atomic.Uint64
	slots   []eraSlot // N*K row-major
	retires []retireCounter
	eras    [][]uint64 // per-thread scan scratch, capacity N*K
}

type retireCounter struct {
	n uint64
	_ pad
}

var _ smr.Scheme = (*HE)(nil)

// New builds an HE instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *HE {
	h := &HE{
		Base:    smr.NewBase(a, n, threshold),
		slots:   make([]eraSlot, n*K),
		retires: make([]retireCounter, n),
		eras:    make([][]uint64, n),
	}
	h.era.Store(1)
	for t := range h.eras {
		h.eras[t] = make([]uint64, 0, n*K)
	}
	return h
}

// Name implements smr.Scheme.
func (h *HE) Name() string { return "he" }

// Props implements smr.Scheme.
func (h *HE) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		MetaWordsUsed: 2, // birth and retire eras
		// Weakly robust, not robust: a published era pins every node whose
		// lifetime contains it — up to the whole structure alive at that
		// era, i.e. linear in max_active (the paper's §2 calls this a
		// "liberal bound"). The ERA matrix's audited R measures exactly
		// that: a stalled reader's backlog plateaus at the structure size.
		Robustness:    smr.WeaklyRobust,
		Applicability: smr.Restricted,
	}
}

// BeginOp implements smr.Scheme.
func (h *HE) BeginOp(tid int) {}

// EndOp clears the thread's era slots.
func (h *HE) EndOp(tid int) {
	for i := 0; i < K; i++ {
		h.slots[tid*K+i].era.Store(noEra)
	}
}

// Alloc stamps the node's birth era.
func (h *HE) Alloc(tid int) (mem.Ref, error) {
	r, err := h.Arena.Alloc(tid)
	if err != nil {
		return r, err
	}
	h.Arena.MetaStore(r.Slot(), smr.MetaBirth, h.era.Load())
	return r, nil
}

// Retire stamps the node's retire era and advances the era every
// epochFreq retirements.
func (h *HE) Retire(tid int, r mem.Ref) {
	h.Arena.MetaStore(r.Slot(), smr.MetaRetire, h.era.Load())
	if h.Arena.Retire(tid, r) != nil {
		return
	}
	c := &h.retires[tid]
	c.n++
	if c.n%epochFreq == 0 {
		h.era.Add(1)
	}
	if h.PushRetired(tid, r) {
		h.scan(tid)
	}
}

// scan reclaims retired nodes whose lifetime contains no published era.
func (h *HE) scan(tid int) {
	eras := h.eras[tid][:0]
	for i := range h.slots {
		if e := h.slots[i].era.Load(); e != noEra {
			eras = append(eras, e)
		}
	}
	l := &h.Lists[tid].Refs
	scanned := len(*l)
	kept := (*l)[:0]
	for _, r := range *l {
		birth := h.Arena.MetaLoad(r.Slot(), smr.MetaBirth)
		retire := h.Arena.MetaLoad(r.Slot(), smr.MetaRetire)
		conflict := false
		for _, e := range eras {
			if birth <= e && e <= retire {
				conflict = true
				break
			}
		}
		if conflict {
			kept = append(kept, r)
		} else {
			_ = h.Arena.Reclaim(tid, r)
		}
	}
	*l = kept
	h.NoteScan(tid, scanned, scanned-len(kept))
}

// Flush implements smr.Scheme.
func (h *HE) Flush(tid int) { h.scan(tid) }

// Read implements smr.Scheme.
func (h *HE) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	return h.TransparentRead(tid, r, w)
}

// ReadPtr publishes the current era in slot idx, loads the target, and
// retries until the global era is stable across the load — the HE
// protect-and-validate loop.
func (h *HE) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	slot := &h.slots[tid*K+idx].era
	prev := slot.Load()
	for {
		e1 := h.era.Load()
		if e1 != prev {
			slot.Store(e1)
			prev = e1
		}
		v, err := h.Arena.Load(tid, src.WithoutMark(), w)
		if err != nil {
			h.S.StaleUses.Add(1)
			return mem.Ref(v), true
		}
		if h.era.Load() == e1 {
			return mem.Ref(v), true
		}
	}
}

// Write implements smr.Scheme.
func (h *HE) Write(tid int, r mem.Ref, w int, v uint64) bool {
	return h.TransparentWrite(tid, r, w, v)
}

// CAS implements smr.Scheme.
func (h *HE) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	return h.TransparentCAS(tid, r, w, old, new)
}

// CASPtr implements smr.Scheme.
func (h *HE) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return h.TransparentCAS(tid, r, w, uint64(old), uint64(new))
}

// WritePtr implements smr.Scheme.
func (h *HE) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return h.TransparentWrite(tid, r, w, uint64(v))
}

// Reserve implements smr.Scheme.
func (h *HE) Reserve(tid int, refs ...mem.Ref) bool { return true }
