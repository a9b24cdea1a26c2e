package smr

import (
	"errors"

	"repro/internal/mem"
)

type pad [56]byte

// RetireList is a per-thread list of retired-but-unreclaimed nodes, the
// standard building block of every scheme in the literature ("retired
// nodes are typically held in per-thread retire lists").
type RetireList struct {
	Refs []mem.Ref
	_    pad
}

// Observer receives scheme-level reclamation events. The observability
// plane (internal/obs) wires its flight recorder in through this; the
// scheme side stays dependency-free. Implementations are called on the
// reclaiming thread's hot path and must be cheap and non-blocking.
type Observer interface {
	// SMRScan reports one reclamation scan by thread tid: how many
	// retired nodes it examined and how many it reclaimed.
	SMRScan(tid, scanned, reclaimed int)
}

// Base is the default scheme: every smr.Scheme method but Name and Props,
// each doing what a scheme that leaves it alone does. Brackets are
// no-ops, guarded accesses are transparent, Alloc allocates (flushing and
// retrying once on an exhausted heap), Retire pushes onto the thread's
// retire list and scans at the threshold, and Flush scans. A scheme
// embeds Base and overrides only what it changes; its scan is the hook
// NewBase installs.
//
// Embedding is not virtual dispatch: a Base method calls Base's methods,
// never the embedding scheme's overrides, so a scheme that overrides Read
// must override ReadPtr too. Base deliberately has no Rebracket,
// FusedWindowCap or SetLinkWords: callers type-assert those, and a
// promoted default would opt every scheme in.
type Base struct {
	Arena     *mem.Arena
	N         int
	Threshold int // retire-list length that triggers a reclamation scan
	Lists     []RetireList
	S         Stats
	Obs       Observer // nil unless an observability plane is attached
	scan      func(tid int)
}

// NewBase initializes a Base for n threads. threshold <= 0 selects a
// default proportional to the thread count. scan is the scheme's
// reclamation scan of tid's retire list; a scheme that keeps no retire
// list passes nil and overrides Retire.
func NewBase(a *mem.Arena, n, threshold int, scan func(tid int)) Base {
	if threshold <= 0 {
		threshold = 2 * n * 8
	}
	return Base{Arena: a, N: n, Threshold: threshold, Lists: make([]RetireList, n), scan: scan}
}

// SetObserver attaches (or, with nil, detaches) the scan observer. Set it
// before the scheme's threads start running — the field is read unfenced
// on the scan path.
func (b *Base) SetObserver(o Observer) { b.Obs = o }

// NoteScan counts one reclamation scan and forwards it to the observer.
// Every scheme's scan calls this once, so Stats.Scans counts scans.
func (b *Base) NoteScan(tid, scanned, reclaimed int) {
	b.S.Scans.Add(1)
	if b.Obs != nil {
		b.Obs.SMRScan(tid, scanned, reclaimed)
	}
}

// Stats implements Scheme.
func (b *Base) Stats() *Stats { return &b.S }

// Heap implements Scheme.
func (b *Base) Heap() *mem.Arena { return b.Arena }

// BeginOp implements Scheme; the default bracket does nothing.
func (b *Base) BeginOp(tid int) {}

// EndOp implements Scheme; the default bracket does nothing.
func (b *Base) EndOp(tid int) {}

// Alloc implements Scheme. On an exhausted heap it flushes tid's retire
// list and tries once more: scans run only on retire, and a thread whose
// allocations fail may retire nothing, so a backlog that filled the heap
// before a scan came due would otherwise stay for good.
func (b *Base) Alloc(tid int) (mem.Ref, error) {
	r, err := b.Arena.Alloc(tid)
	if errors.Is(err, mem.ErrOOM) && b.scan != nil {
		b.scan(tid)
		r, err = b.Arena.Alloc(tid)
	}
	return r, err
}

// Retire implements Scheme: it appends r to tid's retire list and scans
// once the list reaches the threshold.
//
// Deliberately "every push past the threshold", not an amortized "every
// Threshold-th push": a thread can stall *inside* one operation for a
// long stretch (a parked worker, or a traversal riding a restart storm),
// pinning epoch-style reclamation meanwhile, and the eager re-scan is
// what collapses the accumulated backlog the instant the pin lifts. An
// amortized trigger was tried and measured: it lets the backlog of such
// an episode run a shard heap dry before the next scan comes due. For
// the epoch schemes (EBR, PEBR) the re-scan under a pin is O(1): it
// examines the list's oldest node only (see ReclaimExpired).
func (b *Base) Retire(tid int, r mem.Ref) {
	if b.Arena.Retire(tid, r) != nil {
		return
	}
	l := &b.Lists[tid]
	l.Refs = append(l.Refs, r)
	if len(l.Refs) >= b.Threshold {
		b.scan(tid)
	}
}

// Flush implements Scheme: it runs the scan regardless of list length.
func (b *Base) Flush(tid int) {
	if b.scan != nil {
		b.scan(tid)
	}
}

// Compact is the keep-or-reclaim scan: it reclaims every node of tid's
// retire list that keep rejects, keeps the rest in list order, and
// reports the scan.
func (b *Base) Compact(tid int, keep func(mem.Ref) bool) {
	l := &b.Lists[tid].Refs
	scanned := len(*l)
	kept := (*l)[:0]
	for _, r := range *l {
		if keep(r) {
			kept = append(kept, r)
		} else {
			_ = b.Arena.Reclaim(tid, r)
		}
	}
	*l = kept
	b.NoteScan(tid, scanned, scanned-len(kept))
}

// ReclaimExpired is the epoch schemes' scan: it reclaims every node of
// tid's retire list whose MetaRetire stamp is at least two epochs older
// than epoch, in list order, and reports the scan.
//
// The expired nodes are a prefix of the list. The scheme stamps each node
// with the current epoch just before pushing it, the global epoch never
// decreases, and nothing else appends to or reorders the list, so the
// list is sorted by stamp. The walk therefore stops at the first node too
// young to free: a scan examines one node more than it reclaims, however
// long the backlog a pinned epoch has piled up.
func (b *Base) ReclaimExpired(tid int, epoch uint64) {
	l := &b.Lists[tid].Refs
	refs := *l
	n := 0
	for n < len(refs) && b.Arena.MetaLoad(refs[n].Slot(), MetaRetire)+2 <= epoch {
		_ = b.Arena.Reclaim(tid, refs[n])
		n++
	}
	examined := n
	if n < len(refs) {
		examined++ // the first node too young to free
	}
	if n > 0 {
		*l = refs[:copy(refs, refs[n:])]
	}
	b.NoteScan(tid, examined, n)
}

// Read implements Scheme transparently: the value is always handed to
// the data structure. If the reference turned out to be invalid, handing
// the value over *uses* a stale value — a safety violation under
// Definition 4.2 that the monitors pick up via StaleUses.
func (b *Base) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	v, err := b.Arena.Load(tid, r.WithoutMark(), w)
	if err != nil {
		b.S.StaleUses.Add(1)
	}
	return v, true
}

// ReadPtr implements Scheme: Read of a link word, with no per-pointer
// protection (idx is ignored).
func (b *Base) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	v, _ := b.Read(tid, src, w)
	return mem.Ref(v), true
}

// Write implements Scheme transparently.
func (b *Base) Write(tid int, r mem.Ref, w int, v uint64) bool {
	if err := b.Arena.Store(tid, r.WithoutMark(), w, v); err != nil {
		b.S.StaleUses.Add(1)
	}
	return true
}

// WritePtr implements Scheme: Write of a link word.
func (b *Base) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return b.Write(tid, r, w, uint64(v))
}

// CAS implements Scheme transparently. An invalid reference makes the
// CAS fail (the arena refuses the update), which the data structure
// observes as an ordinary CAS failure.
func (b *Base) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	ok, err := b.Arena.CAS(tid, r.WithoutMark(), w, old, new)
	if err != nil {
		// The scheme believed this node could not be reclaimed while in
		// use; a refused CAS through an invalid reference is an unsafe
		// update attempt (Definition 4.2, Condition 2).
		b.S.StaleUses.Add(1)
	}
	return ok, true
}

// CASPtr implements Scheme: CAS of a link word.
func (b *Base) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return b.CAS(tid, r, w, uint64(old), uint64(new))
}

// Reserve implements Scheme; the default publishes nothing.
func (b *Base) Reserve(tid int, refs ...mem.Ref) bool { return true }

// Validating is Base with version-validated updates, shared by the
// optimistic schemes (VBR, PEBR): an update through an invalid reference
// fails and rolls the operation back instead of counting a stale use.
type Validating struct{ Base }

// Write implements Scheme. Stores are only used on nodes the operation
// owns (pre-publication initialization); a stale target rolls back.
func (v *Validating) Write(tid int, r mem.Ref, w int, val uint64) bool {
	if err := v.Arena.Store(tid, r.WithoutMark(), w, val); err != nil {
		v.S.Restarts.Add(1)
		return false
	}
	return true
}

// WritePtr implements Scheme.
func (v *Validating) WritePtr(tid int, r mem.Ref, w int, val mem.Ref) bool {
	return v.Write(tid, r, w, uint64(val))
}

// CAS implements Scheme. An update through an invalid reference is
// guaranteed to fail (the version check); the operation rolls back.
func (v *Validating) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	swapped, err := v.Arena.CAS(tid, r.WithoutMark(), w, old, new)
	if err != nil {
		v.S.Restarts.Add(1)
		return false, false
	}
	return swapped, true
}

// CASPtr implements Scheme. Beyond CAS's version check on the *source*
// word, a link installation must also cover the *target*: between reading
// a reference and linking it, the target may have been reclaimed, and
// publishing such a reference would leave a permanently stale edge that
// livelocks every traversal crossing it. The real schemes' wide CAS (or
// fences) cover the target's version atomically; the simulation validates
// after the swap and undoes on failure (a best-effort stand-in — see
// DESIGN.md).
func (v *Validating) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	swapped, ok := v.CAS(tid, r, w, uint64(old), uint64(new))
	if swapped && ok {
		if t := new.Bare(); !t.IsNil() && !v.Arena.Valid(t) {
			_, _ = v.Arena.CAS(tid, r.WithoutMark(), w, uint64(new), uint64(old))
			v.S.Restarts.Add(1)
			return false, false
		}
	}
	return swapped, ok
}
