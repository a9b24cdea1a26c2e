package smr

import "repro/internal/mem"

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

// Base carries the state every scheme shares: the arena, the thread count,
// per-thread retire lists and the event counters.
type Base struct {
	Arena     *mem.Arena
	N         int
	Threshold int // retire-list length that triggers a reclamation scan
	Lists     []RetireList
	S         Stats
	Obs       Observer // nil unless an observability plane is attached
}

// SetObserver attaches (or, with nil, detaches) the scan observer. Set it
// before the scheme's threads start running — the field is read unfenced
// on the scan path.
func (b *Base) SetObserver(o Observer) { b.Obs = o }

// NoteScan counts one reclamation scan and forwards it to the observer.
// Every scheme's scan calls this exactly where it used to bump S.Scans,
// so the counter semantics are unchanged with observability off.
func (b *Base) NoteScan(tid, scanned, reclaimed int) {
	b.S.Scans.Add(1)
	if b.Obs != nil {
		b.Obs.SMRScan(tid, scanned, reclaimed)
	}
}

// NewBase initializes a Base for n threads. threshold <= 0 selects a
// default proportional to the thread count.
func NewBase(a *mem.Arena, n, threshold int) Base {
	if threshold <= 0 {
		threshold = 2 * n * 8
	}
	return Base{Arena: a, N: n, Threshold: threshold, Lists: make([]RetireList, n)}
}

// Stats returns the shared counters.
func (b *Base) Stats() *Stats { return &b.S }

// Heap returns the arena the scheme is bound to.
func (b *Base) Heap() *mem.Arena { return b.Arena }

// PushRetired appends r to tid's retire list and reports whether the list
// reached the scan threshold.
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
func (b *Base) PushRetired(tid int, r mem.Ref) bool {
	l := &b.Lists[tid]
	l.Refs = append(l.Refs, r)
	return len(l.Refs) >= b.Threshold
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

// TransparentRead is the guarded load used by schemes that claim all
// accesses are safe (EBR, HP, IBR, HE, and the baselines): the value is
// always handed to the data structure. If the reference turned out to be
// invalid, handing the value over *uses* a stale value — a safety
// violation under Definition 4.2 that the monitors pick up via StaleUses.
func (b *Base) TransparentRead(tid int, r mem.Ref, w int) (uint64, bool) {
	v, err := b.Arena.Load(tid, r.WithoutMark(), w)
	if err != nil {
		b.S.StaleUses.Add(1)
	}
	return v, true
}

// TransparentReadPtr is TransparentRead for link words.
func (b *Base) TransparentReadPtr(tid int, src mem.Ref, w int) (mem.Ref, bool) {
	v, _ := b.TransparentRead(tid, src, w)
	return mem.Ref(v), true
}

// TransparentWrite is the guarded store for transparent schemes.
func (b *Base) TransparentWrite(tid int, r mem.Ref, w int, v uint64) bool {
	if err := b.Arena.Store(tid, r.WithoutMark(), w, v); err != nil {
		b.S.StaleUses.Add(1)
	}
	return true
}

// TransparentCAS is the guarded compare-and-swap for transparent schemes.
// An invalid reference makes the CAS fail (the arena refuses the update),
// which the data structure observes as an ordinary CAS failure.
func (b *Base) TransparentCAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	ok, err := b.Arena.CAS(tid, r.WithoutMark(), w, old, new)
	if err != nil {
		// The scheme believed this node could not be reclaimed while in
		// use; a refused CAS through an invalid reference is an unsafe
		// update attempt (Definition 4.2, Condition 2).
		b.S.StaleUses.Add(1)
	}
	return ok, true
}
