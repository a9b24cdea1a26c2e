// Package nbr implements neutralization-based reclamation (Singh, Brown &
// Mashtizadeh, PPoPP 2021).
//
// NBR is the paper's witness for "robust + widely applicable": it works on
// every access-aware data structure (implementations divisible into
// read-only and write phases, Appendix C) and bounds the retired backlog,
// but integration is hard — the reclaimer *neutralizes* other threads,
// forcing them to roll back to a checkpoint, and the code must publish
// reservations before each write phase.
//
// The real scheme uses POSIX signals: the reclaimer signals every thread
// and the handler longjmps to the checkpoint unless the thread is in a
// write phase. The simulation substitutes a per-thread neutralization flag
// polled by every guarded access *after* its load: because the reclaimer
// raises all flags before reclaiming, any load that observed reclaimed
// memory is followed by a flag check that observes the flag, so the stale
// value is discarded and the operation restarts — Definition 4.2 is
// satisfied without the value ever being used.
package nbr

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/smr"
)

type pad [56]byte

type flag struct {
	raised atomic.Bool
	_      pad
}

// K is the number of reservation slots per thread.
const K = 8

type reservation struct {
	refs [K]atomic.Uint64
	_    pad
}

// NBR is the neutralization-based reclamation scheme.
type NBR struct {
	smr.Base
	flags    []flag
	resv     []reservation
	reserved []map[mem.Ref]struct{} // per-thread scan scratch
}

var _ smr.Scheme = (*NBR)(nil)

// New builds an NBR instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *NBR {
	s := &NBR{
		Base:     smr.NewBase(a, n, threshold),
		flags:    make([]flag, n),
		resv:     make([]reservation, n),
		reserved: make([]map[mem.Ref]struct{}, n),
	}
	for t := range s.reserved {
		s.reserved[t] = make(map[mem.Ref]struct{}, n*K)
	}
	return s
}

// Name implements smr.Scheme.
func (s *NBR) Name() string { return "nbr" }

// Props implements smr.Scheme.
func (s *NBR) Props() smr.Props {
	return smr.Props{
		RequiresRollback: true,
		RequiresPhases:   true,
		// The real scheme's signals interrupt a thread *before* it can
		// touch freed memory; the simulation polls the flag after the
		// load, so the (discarded) load physically happens and must land
		// in program space. See DESIGN.md, simulation limitations.
		TypePreserving: true,
		SelfContained:  false, // real NBR relies on OS signals
		MetaWordsUsed:  0,
		Robustness:     smr.Robust,
		Applicability:  smr.WidelyApplicable,
	}
}

// BeginOp consumes any neutralization that arrived between operations (the
// thread is at its checkpoint already) and clears stale reservations.
func (s *NBR) BeginOp(tid int) {
	s.flags[tid].raised.Store(false)
	for i := 0; i < K; i++ {
		s.resv[tid].refs[i].Store(0)
	}
}

// EndOp implements smr.Scheme.
func (s *NBR) EndOp(tid int) {
	for i := 0; i < K; i++ {
		s.resv[tid].refs[i].Store(0)
	}
}

// neutralized polls-and-consumes the thread's flag.
func (s *NBR) neutralized(tid int) bool {
	if s.flags[tid].raised.Load() {
		s.flags[tid].raised.Store(false)
		s.S.Neutralizations.Add(1)
		s.S.Restarts.Add(1)
		return true
	}
	return false
}

// Alloc implements smr.Scheme.
func (s *NBR) Alloc(tid int) (mem.Ref, error) { return s.Arena.Alloc(tid) }

// Retire appends to the retire list; a full list neutralizes every other
// thread ("sends signals") and reclaims everything unreserved. The
// reclaimer never waits for acknowledgements, preserving lock freedom.
func (s *NBR) Retire(tid int, r mem.Ref) {
	if s.Arena.Retire(tid, r) != nil {
		return
	}
	if s.PushRetired(tid, r) {
		s.scan(tid)
	}
}

// scan raises every other thread's neutralization flag, then reclaims all
// retired nodes not covered by a published reservation. Ordering argument:
// a thread publishes reservations and then checks its flag (Reserve); the
// reclaimer raises flags and then reads reservations. Either the reclaimer
// sees the reservation, or the thread sees the flag and rolls back before
// entering its write phase.
func (s *NBR) scan(tid int) {
	for t := range s.flags {
		if t != tid {
			s.flags[t].raised.Store(true)
		}
	}
	reserved := s.reserved[tid]
	clear(reserved)
	for t := range s.resv {
		for i := 0; i < K; i++ {
			if v := s.resv[t].refs[i].Load(); v != 0 {
				reserved[mem.Ref(v).WithoutMark()] = struct{}{}
			}
		}
	}
	l := &s.Lists[tid].Refs
	scanned := len(*l)
	kept := (*l)[:0]
	for _, r := range *l {
		if _, ok := reserved[r.WithoutMark()]; ok {
			kept = append(kept, r)
		} else {
			_ = s.Arena.Reclaim(tid, r)
		}
	}
	*l = kept
	s.NoteScan(tid, scanned, scanned-len(kept))
}

// Flush implements smr.Scheme.
func (s *NBR) Flush(tid int) { s.scan(tid) }

// Read loads, then polls the neutralization flag; a raised flag discards
// the value and rolls the operation back.
func (s *NBR) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	val, err := s.Arena.Load(tid, r.WithoutMark(), w)
	if s.neutralized(tid) {
		return 0, false
	}
	if err != nil {
		// A stale load without a raised flag cannot happen under the
		// flags-before-reclaim protocol; count it as a violation so the
		// monitors would expose a protocol bug.
		s.S.StaleUses.Add(1)
	}
	return val, true
}

// ReadPtr implements smr.Scheme; reads need no reservations, safety comes
// from neutralization.
func (s *NBR) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	val, ok := s.Read(tid, src, w)
	return mem.Ref(val), ok
}

// Reserve publishes the references the write phase will access, then
// polls the flag: if a neutralization arrived first, the reservations may
// have been missed by a concurrent scan and the operation must roll back.
func (s *NBR) Reserve(tid int, refs ...mem.Ref) bool {
	if len(refs) > K {
		refs = refs[:K]
	}
	for i, r := range refs {
		s.resv[tid].refs[i].Store(uint64(r.WithoutMark()))
	}
	for i := len(refs); i < K; i++ {
		s.resv[tid].refs[i].Store(0)
	}
	if s.neutralized(tid) {
		return false
	}
	return true
}

// Write implements smr.Scheme. Write-phase accesses touch only reserved
// nodes, so they do not poll the flag (signals are deferred during write
// phases in the real scheme).
func (s *NBR) Write(tid int, r mem.Ref, w int, v uint64) bool {
	if err := s.Arena.Store(tid, r.WithoutMark(), w, v); err != nil {
		s.S.StaleUses.Add(1)
	}
	return true
}

// WritePtr implements smr.Scheme.
func (s *NBR) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return s.Write(tid, r, w, uint64(v))
}

// CAS implements smr.Scheme.
func (s *NBR) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	swapped, err := s.Arena.CAS(tid, r.WithoutMark(), w, old, new)
	if err != nil {
		s.S.StaleUses.Add(1)
	}
	return swapped, true
}

// CASPtr implements smr.Scheme.
func (s *NBR) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return s.CAS(tid, r, w, uint64(old), uint64(new))
}
