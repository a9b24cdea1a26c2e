package mem

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// State is a node's position in the life-cycle of Section 4.1 of the paper.
type State uint8

// Life-cycle states. System is not a paper life-cycle state: it models a
// slot whose memory was returned to the operating system ("system space",
// Section 4.2); any access to it is a simulated segmentation fault.
const (
	Unallocated State = iota
	Local
	Shared
	Retired
	System
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case Unallocated:
		return "unallocated"
	case Local:
		return "local"
	case Shared:
		return "shared"
	case Retired:
		return "retired"
	case System:
		return "system"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// ReclaimMode selects what happens to a slot when it is reclaimed.
type ReclaimMode uint8

const (
	// Reuse keeps reclaimed slots in program space for re-allocation.
	// Stale reads through invalid references return whatever currently
	// occupies the slot (they are still accounted as unsafe accesses).
	Reuse ReclaimMode = iota
	// Unmap returns reclaimed slots to system space. Any subsequent
	// access through an invalid reference is a simulated segmentation
	// fault, and the slot is never re-allocated.
	Unmap
)

// Errors reported by Arena accesses. ErrInvalid and ErrFault are the two
// faces of an unsafe access (Definition 4.1): the first is a stale access
// to program space, the second an access to system space.
var (
	ErrInvalid   = errors.New("mem: unsafe access through invalid reference")
	ErrFault     = errors.New("mem: segmentation fault (access to system space)")
	ErrOOM       = errors.New("mem: out of memory (no free slots)")
	ErrLifecycle = errors.New("mem: node life-cycle violation")
)

// Config configures an Arena.
type Config struct {
	// Slots is the total number of node slots (the heap size).
	Slots int
	// PayloadWords is the number of 64-bit data words per node. The data
	// structure owns these words (key, links, values).
	PayloadWords int
	// MetaWords is the number of 64-bit scheme-private words per node
	// (birth era, retire era, version, reference count, ...). These model
	// the fields an SMR scheme may add to the node layout (Definition
	// 5.3, Condition 5); they are not part of node memory and survive
	// reclamation.
	MetaWords int
	// Threads is the number of executing threads (per-thread free caches).
	Threads int
	// Mode selects reclamation into program space (Reuse) or system
	// space (Unmap).
	Mode ReclaimMode
	// Trace enables per-thread access tracing (used by the access-aware
	// verifier). Off by default; it allocates on every access.
	Trace bool
	// CacheSize is the per-thread free-slot cache capacity (default 32).
	CacheSize int
}

const hdrStateBits = 3

// pad keeps hot atomics on separate cache lines.
type pad [56]byte

type threadCache struct {
	slots []int
	_     pad
}

// freeStripe is one shard of the free list. Each thread owns one stripe
// (its home for pushes and the first stop for pops) and steals from the
// others only when its own runs dry, so free-list traffic stays
// thread-local until the heap is nearly exhausted.
type freeStripe struct {
	head atomic.Uint64 // stamp<<32 | (slot+1); 0 means empty
	// Pad to 128 bytes so neighbouring stripes don't share an
	// adjacent-line prefetch pair (the head CAS is the hottest shared
	// word the sharding exists to de-contend).
	_ [120]byte
}

// Arena is the simulated manually-managed heap: a fixed slab of node slots
// with explicit allocation, retirement and reclamation, and validity
// checking on every access.
//
// Each slot has a header word packing (sequence number << 3 | state). The
// sequence number increments exactly when the slot is reclaimed, so a Ref
// whose tag disagrees with the header is invalid in the sense of
// Definition 4.1 — the node it referenced was unallocated at some point
// after the reference was created.
type Arena struct {
	cfg  Config
	hdr  []atomic.Uint64 // per-slot: seq<<3 | state
	data []atomic.Uint64 // Slots * PayloadWords
	meta []atomic.Uint64 // Slots * MetaWords

	free     []freeStripe // per-thread-striped free-list heads
	freeNext []atomic.Uint32
	caches   []threadCache

	stats  Stats
	tracer *Tracer
}

// NewArena builds an arena per cfg. All slots start unallocated and free.
func NewArena(cfg Config) *Arena {
	if cfg.Slots <= 0 {
		panic("mem: Config.Slots must be positive")
	}
	if cfg.Slots >= slotMask {
		panic("mem: Config.Slots exceeds Ref slot capacity")
	}
	if cfg.PayloadWords <= 0 {
		panic("mem: Config.PayloadWords must be positive")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 32
	}
	a := &Arena{
		cfg:      cfg,
		hdr:      make([]atomic.Uint64, cfg.Slots),
		data:     make([]atomic.Uint64, cfg.Slots*cfg.PayloadWords),
		free:     make([]freeStripe, cfg.Threads),
		freeNext: make([]atomic.Uint32, cfg.Slots),
		caches:   make([]threadCache, cfg.Threads),
	}
	a.stats.init(cfg.Threads)
	if cfg.MetaWords > 0 {
		a.meta = make([]atomic.Uint64, cfg.Slots*cfg.MetaWords)
	}
	if cfg.Trace {
		a.tracer = NewTracer(cfg.Threads)
	}
	// Partition the slots into one contiguous block per stripe and chain
	// each block: slot i -> slot i+1 within the block.
	stripes := len(a.free)
	per := cfg.Slots / stripes
	for k := 0; k < stripes; k++ {
		lo := k * per
		hi := lo + per
		if k == stripes-1 {
			hi = cfg.Slots
		}
		if lo >= hi {
			continue
		}
		for i := lo; i < hi-1; i++ {
			a.freeNext[i].Store(uint32(i + 2))
		}
		a.free[k].head.Store(uint64(lo + 1)) // stamp 0, head slot lo
	}
	return a
}

// Config returns the configuration the arena was built with.
func (a *Arena) Config() Config { return a.cfg }

// Tracer returns the access tracer, or nil when tracing is disabled.
func (a *Arena) Tracer() *Tracer { return a.tracer }

// Stats returns the arena's statistics counters.
func (a *Arena) Stats() *Stats { return &a.stats }

func packHdr(seq uint64, st State) uint64 { return seq<<hdrStateBits | uint64(st) }
func unpackHdr(h uint64) (seq uint64, st State) {
	return h >> hdrStateBits, State(h & (1<<hdrStateBits - 1))
}

// StateOf returns the current life-cycle state of slot.
func (a *Arena) StateOf(slot int) State { _, st := unpackHdr(a.hdr[slot].Load()); return st }

// Valid reports whether r is currently a valid reference per Definition
// 4.1: the node has not been reclaimed since the reference was created.
func (a *Arena) Valid(r Ref) bool {
	if r.IsNil() {
		return false
	}
	seq, st := unpackHdr(a.hdr[r.Slot()].Load())
	return seq&TagMask == r.Tag() && st != Unallocated && st != System
}

// --- free-list management -------------------------------------------------

func (a *Arena) pushFreeStripe(k, slot int) {
	h := &a.free[k].head
	for {
		old := h.Load()
		a.freeNext[slot].Store(uint32(old))
		stamp := old>>32 + 1
		if h.CompareAndSwap(old, stamp<<32|uint64(slot+1)) {
			return
		}
	}
}

func (a *Arena) popFreeStripe(k int) (int, bool) {
	h := &a.free[k].head
	for {
		old := h.Load()
		head := uint32(old)
		if head == 0 {
			return 0, false
		}
		next := a.freeNext[head-1].Load()
		stamp := old>>32 + 1
		if h.CompareAndSwap(old, stamp<<32|uint64(next)) {
			return int(head - 1), true
		}
	}
}

// pushFree returns slot to thread tid's home stripe.
func (a *Arena) pushFree(tid, slot int) {
	a.pushFreeStripe(tid%len(a.free), slot)
}

// popFree takes a free slot for thread tid: from its home stripe when
// possible, stealing round-robin from the other stripes when the home is
// empty. The all-stripes-empty check is not linearizable (a slot can cycle
// onto an already-scanned stripe mid-scan), so a failed scan retries once
// before declaring exhaustion; a genuinely empty heap still fails fast,
// and residual spurious failures match the transient-exhaustion semantics
// the per-thread caches already give the heap (a free slot parked in
// another thread's cache has never been visible here).
func (a *Arena) popFree(tid int) (int, bool) {
	n := len(a.free)
	home := tid % n
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			if slot, ok := a.popFreeStripe((home + i) % n); ok {
				return slot, true
			}
		}
	}
	return 0, false
}

// --- life-cycle operations --------------------------------------------------

// Alloc allocates a fresh node for thread tid and returns a valid reference
// to it. The node starts Local with zeroed payload words. Scheme metadata
// words are preserved across reallocation (type preservation, as required
// by optimistic schemes such as VBR). Alloc fails with ErrOOM when the heap
// is exhausted — which is itself a meaningful experimental outcome for
// non-robust schemes.
func (a *Arena) Alloc(tid int) (Ref, error) {
	c := &a.caches[tid]
	var slot int
	if n := len(c.slots); n > 0 {
		slot = c.slots[n-1]
		c.slots = c.slots[:n-1]
	} else {
		s, ok := a.popFree(tid)
		if !ok {
			a.stats.stripe(tid).oom.Add(1)
			return NilRef, ErrOOM
		}
		slot = s
	}
	h := a.hdr[slot].Load()
	seq, st := unpackHdr(h)
	if st != Unallocated {
		a.stats.stripe(tid).violations.Add(1)
		return NilRef, fmt.Errorf("%w: allocating slot %d in state %v", ErrLifecycle, slot, st)
	}
	// Zero payload words before publishing the node.
	base := slot * a.cfg.PayloadWords
	for w := 0; w < a.cfg.PayloadWords; w++ {
		a.data[base+w].Store(0)
	}
	a.hdr[slot].Store(packHdr(seq, Local))
	a.stats.stripe(tid).allocs.Add(1)
	act := a.stats.active.Add(1)
	a.stats.bumpMaxActive(act)
	r := MakeRef(slot, seq)
	if a.tracer != nil {
		a.tracer.record(tid, TraceEvent{Kind: EvAlloc, Slot: slot, Ref: r})
	}
	return r, nil
}

// MarkShared transitions a Local node to Shared. It is called by the data
// structure when the node is about to become reachable. Idempotent for
// already-Shared nodes.
func (a *Arena) MarkShared(r Ref) error {
	slot := r.Slot()
	for {
		h := a.hdr[slot].Load()
		seq, st := unpackHdr(h)
		if seq&TagMask != r.Tag() {
			a.stats.stripe(0).violations.Add(1)
			return fmt.Errorf("%w: sharing through invalid reference %v", ErrLifecycle, r)
		}
		switch st {
		case Shared:
			return nil
		case Local:
			if a.hdr[slot].CompareAndSwap(h, packHdr(seq, Shared)) {
				return nil
			}
		default:
			a.stats.stripe(0).violations.Add(1)
			return fmt.Errorf("%w: sharing node in state %v", ErrLifecycle, st)
		}
	}
}

// Retire transitions an active (Local or Shared) node to Retired,
// announcing it is a candidate for reclamation. Double retirement is a
// life-cycle violation (Section 4.1: a node cannot be retired again).
func (a *Arena) Retire(tid int, r Ref) error {
	slot := r.Slot()
	for {
		h := a.hdr[slot].Load()
		seq, st := unpackHdr(h)
		if seq&TagMask != r.Tag() {
			a.stats.stripe(tid).violations.Add(1)
			return fmt.Errorf("%w: retiring through invalid reference %v", ErrLifecycle, r)
		}
		if st != Local && st != Shared {
			a.stats.stripe(tid).violations.Add(1)
			return fmt.Errorf("%w: retiring node in state %v", ErrLifecycle, st)
		}
		if a.hdr[slot].CompareAndSwap(h, packHdr(seq, Retired)) {
			a.stats.stripe(tid).retires.Add(1)
			a.stats.active.Add(^uint64(0))
			ret := a.stats.retired.Add(1)
			a.stats.bumpMaxRetired(ret)
			if a.tracer != nil {
				a.tracer.record(tid, TraceEvent{Kind: EvRetire, Slot: slot, Ref: r})
			}
			return nil
		}
	}
}

// Reclaim makes a Retired node's memory available again. In Reuse mode the
// slot returns to the free list (program space); in Unmap mode it moves to
// system space and is never re-allocated. Reclaiming bumps the slot's
// sequence number, invalidating all outstanding references to the node.
func (a *Arena) Reclaim(tid int, r Ref) error {
	slot := r.Slot()
	for {
		h := a.hdr[slot].Load()
		seq, st := unpackHdr(h)
		if seq&TagMask != r.Tag() {
			a.stats.stripe(tid).violations.Add(1)
			return fmt.Errorf("%w: reclaiming through invalid reference %v", ErrLifecycle, r)
		}
		if st != Retired {
			a.stats.stripe(tid).violations.Add(1)
			return fmt.Errorf("%w: reclaiming node in state %v", ErrLifecycle, st)
		}
		next := Unallocated
		if a.cfg.Mode == Unmap {
			next = System
		}
		if a.hdr[slot].CompareAndSwap(h, packHdr(seq+1, next)) {
			a.stats.stripe(tid).reclaims.Add(1)
			a.stats.retired.Add(^uint64(0))
			if a.tracer != nil {
				a.tracer.record(tid, TraceEvent{Kind: EvReclaim, Slot: slot, Ref: r})
			}
			if a.cfg.Mode == Reuse {
				c := &a.caches[tid]
				if len(c.slots) < a.cfg.CacheSize {
					c.slots = append(c.slots, slot)
				} else {
					a.pushFree(tid, slot)
				}
			}
			return nil
		}
	}
}

// --- payload access ---------------------------------------------------------

func (a *Arena) check(r Ref) error {
	if r.IsNil() {
		return fmt.Errorf("%w: nil dereference", ErrFault)
	}
	seq, st := unpackHdr(a.hdr[r.Slot()].Load())
	if st == System {
		return ErrFault
	}
	if seq&TagMask != r.Tag() || st == Unallocated {
		return ErrInvalid
	}
	return nil
}

// Load reads payload word w of the node referenced by r (the mark bit of r
// is ignored). If r is invalid the access is recorded as unsafe: in Reuse
// mode the (stale) current contents are still returned together with
// ErrInvalid — optimistic schemes read reclaimed memory and discard the
// value — while accesses to system space return ErrFault and no data.
func (a *Arena) Load(tid int, r Ref, w int) (uint64, error) {
	err := a.check(r)
	if err != nil {
		if errors.Is(err, ErrFault) {
			a.stats.stripe(tid).faults.Add(1)
			a.trace(tid, EvLoad, r, w, 0, true)
			return 0, err
		}
		a.stats.stripe(tid).unsafeLoads.Add(1)
		v := a.data[r.Slot()*a.cfg.PayloadWords+w].Load()
		a.trace(tid, EvLoad, r, w, v, true)
		return v, err
	}
	v := a.data[r.Slot()*a.cfg.PayloadWords+w].Load()
	a.trace(tid, EvLoad, r, w, v, false)
	return v, nil
}

// Store writes payload word w of the node referenced by r. Unsafe stores
// are refused (Definition 4.2, Condition 2: an SMR may never modify a
// node's content through an invalid pointer) and accounted.
func (a *Arena) Store(tid int, r Ref, w int, v uint64) error {
	if err := a.check(r); err != nil {
		if errors.Is(err, ErrFault) {
			a.stats.stripe(tid).faults.Add(1)
		} else {
			a.stats.stripe(tid).unsafeStores.Add(1)
		}
		a.trace(tid, EvStore, r, w, v, true)
		return err
	}
	a.data[r.Slot()*a.cfg.PayloadWords+w].Store(v)
	a.trace(tid, EvStore, r, w, v, false)
	return nil
}

// CAS atomically compares-and-swaps payload word w of the node referenced
// by r. Unsafe CASes are refused and fail, modelling VBR's guarantee that
// updates through invalid pointers never take effect (real VBR obtains
// this from a hardware wide-CAS that covers the version word; we obtain it
// by validating the reference around the CAS and compensating if the node
// was reclaimed concurrently — see DESIGN.md, simulation limitations).
func (a *Arena) CAS(tid int, r Ref, w int, old, new uint64) (bool, error) {
	if err := a.check(r); err != nil {
		if errors.Is(err, ErrFault) {
			a.stats.stripe(tid).faults.Add(1)
		} else {
			a.stats.stripe(tid).unsafeStores.Add(1)
		}
		a.trace(tid, EvCAS, r, w, new, true)
		return false, err
	}
	ok := a.data[r.Slot()*a.cfg.PayloadWords+w].CompareAndSwap(old, new)
	if err := a.check(r); err != nil {
		// The node was reclaimed between the validity check and now. The
		// CAS must appear to have failed; if it took effect on recycled
		// memory, undo it (the undo can only fail if another thread has
		// already overwritten the word, in which case it observed a value
		// we are no longer responsible for).
		if ok {
			a.data[r.Slot()*a.cfg.PayloadWords+w].CompareAndSwap(new, old)
		}
		if errors.Is(err, ErrFault) {
			a.stats.stripe(tid).faults.Add(1)
		} else {
			a.stats.stripe(tid).unsafeStores.Add(1)
		}
		a.trace(tid, EvCAS, r, w, new, true)
		return false, err
	}
	a.trace(tid, EvCAS, r, w, new, false)
	return ok, nil
}

func (a *Arena) trace(tid int, k EventKind, r Ref, w int, v uint64, unsafe bool) {
	if a.tracer != nil {
		a.tracer.record(tid, TraceEvent{Kind: k, Slot: r.Slot(), Ref: r, Word: w, Value: v, Unsafe: unsafe})
	}
}

// --- scheme metadata access ---------------------------------------------------
//
// Metadata words belong to the SMR scheme runtime, not to node memory: they
// model the fields a scheme adds to the layout (Definition 5.3, Condition
// 5). They are addressed by slot, never validated, and survive reclamation
// (type preservation).

// MetaLoad reads scheme word w of slot.
func (a *Arena) MetaLoad(slot, w int) uint64 { return a.meta[slot*a.cfg.MetaWords+w].Load() }

// MetaStore writes scheme word w of slot.
func (a *Arena) MetaStore(slot, w int, v uint64) { a.meta[slot*a.cfg.MetaWords+w].Store(v) }

// MetaCAS compares-and-swaps scheme word w of slot.
func (a *Arena) MetaCAS(slot, w int, old, new uint64) bool {
	return a.meta[slot*a.cfg.MetaWords+w].CompareAndSwap(old, new)
}
