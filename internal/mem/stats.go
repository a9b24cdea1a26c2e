package mem

import "sync/atomic"

// statStripe holds one thread's share of the event counters. Eight words
// fill exactly one cache line; the trailing pad keeps neighbouring stripes
// (and the adjacent-line prefetcher) from sharing.
type statStripe struct {
	allocs       atomic.Uint64
	reclaims     atomic.Uint64
	retires      atomic.Uint64
	unsafeLoads  atomic.Uint64
	unsafeStores atomic.Uint64
	faults       atomic.Uint64
	violations   atomic.Uint64
	oom          atomic.Uint64
	_            [64]byte
}

// Stats holds the arena's accounting counters. The counters are the raw
// material for the paper's property monitors: active and retired node
// counts drive the robustness bound of Definitions 5.1–5.2, and the unsafe
// access counters drive the safety check of Definitions 4.1–4.2.
//
// The counters come in two kinds with different scalability treatments:
//
//   - Monotonic event counts (allocs, retires, reclaims, unsafe accesses,
//     faults, violations, OOMs) are striped per thread and aggregated on
//     read. They sit on the hot path of every benchmark operation, and a
//     striped add never contends; the aggregate is exact whenever the
//     readers care (at quiescence, and within the usual snapshot slack
//     while threads run).
//   - Level gauges and their watermarks (active/maxActive,
//     retired/maxRetired) stay global. The watermarks are the monitors'
//     primary observable — max_active_E and the retired backlog peak of
//     Definitions 5.1–5.2 — and must be exact even mid-execution, which a
//     striped gauge cannot provide. They cost one uncontended load plus a
//     rare CAS once the maximum stabilizes.
type Stats struct {
	stripes []statStripe
	// The pad keeps the read-mostly slice header off the gauges' cache
	// lines: every striped add loads the header, every gauge update would
	// otherwise invalidate it.
	_ pad

	active     atomic.Uint64 // allocated and not yet retired
	_          pad
	retired    atomic.Uint64 // retired and not yet reclaimed
	_          pad
	maxActive  atomic.Uint64
	_          pad
	maxRetired atomic.Uint64
	_          pad
}

// init sizes the per-thread stripes. Called once by NewArena.
func (s *Stats) init(threads int) {
	if threads <= 0 {
		threads = 1
	}
	s.stripes = make([]statStripe, threads)
}

// stripe returns thread tid's counter stripe. Counters recorded outside
// any thread context (life-cycle checks without a tid) use stripe 0.
func (s *Stats) stripe(tid int) *statStripe {
	if tid < 0 || tid >= len(s.stripes) {
		tid = 0
	}
	return &s.stripes[tid]
}

func (s *Stats) bumpMaxActive(v uint64) {
	for {
		m := s.maxActive.Load()
		if v <= m || s.maxActive.CompareAndSwap(m, v) {
			return
		}
	}
}

func (s *Stats) bumpMaxRetired(v uint64) {
	for {
		m := s.maxRetired.Load()
		if v <= m || s.maxRetired.CompareAndSwap(m, v) {
			return
		}
	}
}

// Active returns the current number of active (allocated, not retired)
// nodes — the paper's active_E(i).
func (s *Stats) Active() uint64 { return s.active.Load() }

// Retired returns the current number of retired-but-not-reclaimed nodes,
// the quantity bounded by the robustness definitions.
func (s *Stats) Retired() uint64 { return s.retired.Load() }

// MaxActive returns the historical maximum of Active — the paper's
// max_active_E(i).
func (s *Stats) MaxActive() uint64 { return s.maxActive.Load() }

// MaxRetired returns the historical maximum of Retired.
func (s *Stats) MaxRetired() uint64 { return s.maxRetired.Load() }

// Snapshot is a consistent-enough copy of all counters for reporting.
type Snapshot struct {
	Allocs, Reclaims, Retires uint64
	Active, Retired           uint64
	MaxActive, MaxRetired     uint64
	UnsafeLoads, UnsafeStores uint64
	Faults, Violations, OOMs  uint64
}

// Snapshot copies every counter. Individual counters are atomic; the
// snapshot as a whole is not taken atomically, which is fine for the
// monitors (they evaluate bounds, not exact invariants, while threads run,
// and exact values once threads are quiescent).
func (s *Stats) Snapshot() Snapshot {
	sn := Snapshot{
		Active:     s.active.Load(),
		Retired:    s.retired.Load(),
		MaxActive:  s.maxActive.Load(),
		MaxRetired: s.maxRetired.Load(),
	}
	for i := range s.stripes {
		t := &s.stripes[i]
		sn.Allocs += t.allocs.Load()
		sn.Reclaims += t.reclaims.Load()
		sn.Retires += t.retires.Load()
		sn.UnsafeLoads += t.unsafeLoads.Load()
		sn.UnsafeStores += t.unsafeStores.Load()
		sn.Faults += t.faults.Load()
		sn.Violations += t.violations.Load()
		sn.OOMs += t.oom.Load()
	}
	return sn
}

// UnsafeAccesses returns the total number of unsafe accesses (loads,
// refused stores, faults) in the snapshot.
func (sn Snapshot) UnsafeAccesses() uint64 {
	return sn.UnsafeLoads + sn.UnsafeStores + sn.Faults
}
