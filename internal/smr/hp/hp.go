// Package hp implements Michael's hazard pointers.
//
// HP is the paper's witness for "robust + easy integration": the number of
// unreclaimable retired nodes is bounded by the number of hazard slots
// (plus retire-list slack), and integration consists of replacing pointer
// reads with a protect-and-validate loop. What HP gives up is wide
// applicability: validation re-reads the *source* pointer, and a stable
// source does not imply the target is still protected when the data
// structure traverses logically deleted nodes. On Harris's linked-list
// this lets a thread dereference reclaimed memory (Figure 2 and Appendix E
// of the paper); the monitors observe it as StaleUses (or a segmentation
// fault in Unmap mode).
package hp

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/smr"
)

type pad [56]byte

type hazard struct {
	ref atomic.Uint64
	_   pad
}

// K is the number of hazard slots per thread. Three suffice for the list
// structures (pred/curr/next); the skip list uses more.
const K = 8

// HP is the hazard-pointers scheme.
type HP struct {
	smr.Base
	hazards   []hazard               // N*K, row-major by thread
	protected []map[mem.Ref]struct{} // per-thread scan scratch
}

var _ smr.Scheme = (*HP)(nil)

// New builds an HP instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *HP {
	h := &HP{
		Base:      smr.NewBase(a, n, threshold),
		hazards:   make([]hazard, n*K),
		protected: make([]map[mem.Ref]struct{}, n),
	}
	for t := range h.protected {
		h.protected[t] = make(map[mem.Ref]struct{}, n*K)
	}
	return h
}

// Name implements smr.Scheme.
func (h *HP) Name() string { return "hp" }

// Props implements smr.Scheme.
func (h *HP) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		MetaWordsUsed: 0,
		Robustness:    smr.Robust,
		Applicability: smr.Restricted,
	}
}

// BeginOp implements smr.Scheme; HP has no per-operation bracket work.
func (h *HP) BeginOp(tid int) {}

// EndOp clears the thread's hazard slots.
func (h *HP) EndOp(tid int) {
	for i := 0; i < K; i++ {
		h.hazards[tid*K+i].ref.Store(0)
	}
}

// Alloc implements smr.Scheme.
func (h *HP) Alloc(tid int) (mem.Ref, error) { return h.Arena.Alloc(tid) }

// Retire implements smr.Scheme.
func (h *HP) Retire(tid int, r mem.Ref) {
	if h.Arena.Retire(tid, r) != nil {
		return
	}
	if h.PushRetired(tid, r) {
		h.scan(tid)
	}
}

// scan reclaims every node in tid's retire list that no hazard slot
// protects. At most N*K nodes survive a scan, which is the robustness
// bound of the scheme.
func (h *HP) scan(tid int) {
	protected := h.protected[tid]
	clear(protected)
	for i := range h.hazards {
		if v := h.hazards[i].ref.Load(); v != 0 {
			protected[mem.Ref(v)] = struct{}{}
		}
	}
	l := &h.Lists[tid].Refs
	scanned := len(*l)
	kept := (*l)[:0]
	for _, r := range *l {
		if _, ok := protected[r.WithoutMark()]; ok {
			kept = append(kept, r)
		} else {
			_ = h.Arena.Reclaim(tid, r)
		}
	}
	*l = kept
	h.NoteScan(tid, scanned, scanned-len(kept))
}

// Flush implements smr.Scheme.
func (h *HP) Flush(tid int) { h.scan(tid) }

// Read implements smr.Scheme. Plain word reads are left untouched; the
// node is expected to be protected by an earlier ReadPtr.
func (h *HP) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	return h.TransparentRead(tid, r, w)
}

// ReadPtr is HP's protect-and-validate loop: read the target, publish a
// hazard pointer to it in slot idx, and re-read the source word to confirm
// the target is still referenced (and therefore, under HP's integration
// assumptions, not yet retired). The loop retries internally until the
// source word is stable across the protection, so it never requests a
// data-structure rollback — this is what makes HP easily integrable.
func (h *HP) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	slot := &h.hazards[tid*K+idx].ref
	v, err := h.Arena.Load(tid, src.WithoutMark(), w)
	if err != nil {
		// The source node itself was reclaimed under us: HP's protection
		// assumption already failed (this happens exactly on structures
		// HP is not applicable to). The stale value escapes.
		h.S.StaleUses.Add(1)
		slot.Store(uint64(mem.Ref(v).WithoutMark()))
		return mem.Ref(v), true
	}
	for {
		tgt := mem.Ref(v)
		slot.Store(uint64(tgt.WithoutMark()))
		v2, err2 := h.Arena.Load(tid, src.WithoutMark(), w)
		if err2 != nil {
			h.S.StaleUses.Add(1)
			return mem.Ref(v2), true
		}
		if v2 == v {
			return tgt, true
		}
		v = v2
	}
}

// Write implements smr.Scheme.
func (h *HP) Write(tid int, r mem.Ref, w int, v uint64) bool {
	return h.TransparentWrite(tid, r, w, v)
}

// CAS implements smr.Scheme.
func (h *HP) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	return h.TransparentCAS(tid, r, w, old, new)
}

// CASPtr implements smr.Scheme.
func (h *HP) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return h.TransparentCAS(tid, r, w, uint64(old), uint64(new))
}

// WritePtr implements smr.Scheme.
func (h *HP) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return h.TransparentWrite(tid, r, w, uint64(v))
}

// Reserve implements smr.Scheme; HP's protection lives in ReadPtr.
func (h *HP) Reserve(tid int, refs ...mem.Ref) bool { return true }
