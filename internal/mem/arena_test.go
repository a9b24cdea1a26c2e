package mem

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func newTestArena(slots int, mode ReclaimMode) *Arena {
	return NewArena(Config{Slots: slots, PayloadWords: 2, MetaWords: 2, Threads: 4, Mode: mode})
}

func TestAllocLifecycle(t *testing.T) {
	a := newTestArena(8, Reuse)
	r, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.StateOf(r.Slot()); got != Local {
		t.Fatalf("state after alloc: %v", got)
	}
	if !a.Valid(r) {
		t.Fatal("fresh ref must be valid")
	}
	if err := a.MarkShared(r); err != nil {
		t.Fatal(err)
	}
	if got := a.StateOf(r.Slot()); got != Shared {
		t.Fatalf("state after share: %v", got)
	}
	if err := a.Retire(0, r); err != nil {
		t.Fatal(err)
	}
	if got := a.StateOf(r.Slot()); got != Retired {
		t.Fatalf("state after retire: %v", got)
	}
	if !a.Valid(r) {
		t.Fatal("retired (not reclaimed) ref must remain valid")
	}
	if err := a.Reclaim(0, r); err != nil {
		t.Fatal(err)
	}
	if a.Valid(r) {
		t.Fatal("reclaimed ref must be invalid")
	}
	if got := a.StateOf(r.Slot()); got != Unallocated {
		t.Fatalf("state after reclaim: %v", got)
	}
}

func TestAllocZeroesPayloadPreservesMeta(t *testing.T) {
	a := newTestArena(1, Reuse)
	r, _ := a.Alloc(0)
	if err := a.Store(0, r, 0, 42); err != nil {
		t.Fatal(err)
	}
	a.MetaStore(r.Slot(), 1, 77)
	if err := a.Retire(0, r); err != nil {
		t.Fatal(err)
	}
	if err := a.Reclaim(0, r); err != nil {
		t.Fatal(err)
	}
	r2, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Slot() != r.Slot() {
		t.Fatalf("expected slot reuse, got %d then %d", r.Slot(), r2.Slot())
	}
	if v, err := a.Load(0, r2, 0); err != nil || v != 0 {
		t.Fatalf("payload not zeroed: v=%d err=%v", v, err)
	}
	if v := a.MetaLoad(r2.Slot(), 1); v != 77 {
		t.Fatalf("meta not preserved: %d", v)
	}
	if r2.Tag() == r.Tag() {
		t.Fatal("reallocation must change the tag")
	}
}

func TestUnsafeLoadAfterReclaimReuse(t *testing.T) {
	a := newTestArena(4, Reuse)
	r, _ := a.Alloc(0)
	_ = a.Store(0, r, 0, 11)
	_ = a.Retire(0, r)
	_ = a.Reclaim(0, r)

	v, err := a.Load(0, r, 0)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
	// Stale contents are still returned in Reuse mode.
	if v != 11 {
		t.Fatalf("stale read: got %d", v)
	}
	if a.Stats().Snapshot().UnsafeLoads != 1 {
		t.Fatalf("unsafe loads: %d", a.Stats().Snapshot().UnsafeLoads)
	}
}

func TestSegfaultAfterReclaimUnmap(t *testing.T) {
	a := newTestArena(4, Unmap)
	r, _ := a.Alloc(0)
	_ = a.Retire(0, r)
	_ = a.Reclaim(0, r)
	if got := a.StateOf(r.Slot()); got != System {
		t.Fatalf("state: %v", got)
	}
	if _, err := a.Load(0, r, 0); !errors.Is(err, ErrFault) {
		t.Fatalf("want ErrFault, got %v", err)
	}
	if a.Stats().Snapshot().Faults != 1 {
		t.Fatalf("faults: %d", a.Stats().Snapshot().Faults)
	}
	// Unmapped slots are never re-allocated: exhaust the heap.
	for i := 0; i < 3; i++ {
		r, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		_ = a.Retire(0, r)
		_ = a.Reclaim(0, r)
	}
	if _, err := a.Alloc(0); !errors.Is(err, ErrOOM) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
}

func TestUnsafeStoreRefused(t *testing.T) {
	a := newTestArena(4, Reuse)
	r, _ := a.Alloc(0)
	_ = a.Store(0, r, 0, 5)
	_ = a.Retire(0, r)
	_ = a.Reclaim(0, r)
	if err := a.Store(0, r, 0, 99); !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
	// Refused: a fresh allocation of the same slot must not see 99.
	r2, _ := a.Alloc(0)
	if v, _ := a.Load(0, r2, 0); v == 99 {
		t.Fatal("unsafe store took effect")
	}
	if ok, err := a.CAS(0, r, 0, 5, 99); ok || !errors.Is(err, ErrInvalid) {
		t.Fatalf("unsafe CAS must fail: ok=%v err=%v", ok, err)
	}
	if a.Stats().Snapshot().UnsafeStores != 2 {
		t.Fatalf("unsafe stores: %d", a.Stats().Snapshot().UnsafeStores)
	}
}

func TestDoubleRetireViolation(t *testing.T) {
	a := newTestArena(4, Reuse)
	r, _ := a.Alloc(0)
	if err := a.Retire(0, r); err != nil {
		t.Fatal(err)
	}
	if err := a.Retire(0, r); !errors.Is(err, ErrLifecycle) {
		t.Fatalf("want ErrLifecycle, got %v", err)
	}
	if a.Stats().Snapshot().Violations == 0 {
		t.Fatal("violation not counted")
	}
}

func TestReclaimRequiresRetired(t *testing.T) {
	a := newTestArena(4, Reuse)
	r, _ := a.Alloc(0)
	if err := a.Reclaim(0, r); !errors.Is(err, ErrLifecycle) {
		t.Fatalf("want ErrLifecycle, got %v", err)
	}
}

func TestActiveRetiredAccounting(t *testing.T) {
	a := newTestArena(16, Reuse)
	refs := make([]Ref, 0, 10)
	for i := 0; i < 10; i++ {
		r, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	s := a.Stats()
	if s.Active() != 10 || s.MaxActive() != 10 {
		t.Fatalf("active=%d max=%d", s.Active(), s.MaxActive())
	}
	for _, r := range refs[:4] {
		_ = a.Retire(0, r)
	}
	if s.Active() != 6 || s.Retired() != 4 {
		t.Fatalf("active=%d retired=%d", s.Active(), s.Retired())
	}
	for _, r := range refs[:2] {
		_ = a.Reclaim(0, r)
	}
	if s.Retired() != 2 {
		t.Fatalf("retired=%d", s.Retired())
	}
	if s.MaxRetired() != 4 {
		t.Fatalf("maxRetired=%d", s.MaxRetired())
	}
	sn := s.Snapshot()
	if sn.Allocs != 10 || sn.Retires != 4 || sn.Reclaims != 2 {
		t.Fatalf("snapshot %+v", sn)
	}
}

func TestCASValid(t *testing.T) {
	a := newTestArena(2, Reuse)
	r, _ := a.Alloc(0)
	if ok, err := a.CAS(0, r, 1, 0, 7); !ok || err != nil {
		t.Fatalf("CAS: %v %v", ok, err)
	}
	if ok, _ := a.CAS(0, r, 1, 0, 8); ok {
		t.Fatal("CAS with wrong expected must fail")
	}
	if v, _ := a.Load(0, r, 1); v != 7 {
		t.Fatalf("v=%d", v)
	}
}

func TestOOMAndRecovery(t *testing.T) {
	a := NewArena(Config{Slots: 3, PayloadWords: 1, Threads: 1})
	refs := make([]Ref, 0, 3)
	for i := 0; i < 3; i++ {
		r, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	if _, err := a.Alloc(0); !errors.Is(err, ErrOOM) {
		t.Fatalf("want OOM, got %v", err)
	}
	_ = a.Retire(0, refs[0])
	_ = a.Reclaim(0, refs[0])
	if _, err := a.Alloc(0); err != nil {
		t.Fatalf("alloc after reclaim: %v", err)
	}
}

func TestConcurrentAllocReclaim(t *testing.T) {
	const threads, rounds = 4, 2000
	a := NewArena(Config{Slots: threads * 8, PayloadWords: 2, Threads: threads})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r, err := a.Alloc(tid)
				if err != nil {
					continue // transient OOM under contention is fine
				}
				if err := a.Store(tid, r, 0, uint64(tid)); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				if v, err := a.Load(tid, r, 0); err != nil || v != uint64(tid) {
					t.Errorf("load: v=%d err=%v", v, err)
					return
				}
				if err := a.Retire(tid, r); err != nil {
					t.Errorf("retire: %v", err)
					return
				}
				if err := a.Reclaim(tid, r); err != nil {
					t.Errorf("reclaim: %v", err)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	s := a.Stats().Snapshot()
	if s.Violations != 0 || s.UnsafeAccesses() != 0 {
		t.Fatalf("violations=%d unsafe=%d", s.Violations, s.UnsafeAccesses())
	}
	if s.Active != 0 || s.Retired != 0 {
		t.Fatalf("leak: active=%d retired=%d", s.Active, s.Retired)
	}
	if s.Allocs != s.Reclaims {
		t.Fatalf("allocs=%d reclaims=%d", s.Allocs, s.Reclaims)
	}
}

// Property: any interleaving of alloc/retire/reclaim keeps
// active+retired+free == Slots, and reclaimed refs are invalid.
func TestQuickLifecycleConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewArena(Config{Slots: 8, PayloadWords: 1, Threads: 1})
		live := []Ref{}
		retired := []Ref{}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if r, err := a.Alloc(0); err == nil {
					live = append(live, r)
				}
			case 1:
				if len(live) > 0 {
					r := live[len(live)-1]
					live = live[:len(live)-1]
					if a.Retire(0, r) != nil {
						return false
					}
					retired = append(retired, r)
				}
			case 2:
				if len(retired) > 0 {
					r := retired[len(retired)-1]
					retired = retired[:len(retired)-1]
					if a.Reclaim(0, r) != nil {
						return false
					}
					if a.Valid(r) {
						return false
					}
				}
			}
			s := a.Stats()
			if s.Active() != uint64(len(live)) || s.Retired() != uint64(len(retired)) {
				return false
			}
		}
		return a.Stats().Snapshot().Violations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTracer(t *testing.T) {
	a := NewArena(Config{Slots: 4, PayloadWords: 1, Threads: 2, Trace: true})
	r, _ := a.Alloc(1)
	_ = a.Store(1, r, 0, 3)
	_, _ = a.Load(1, r, 0)
	a.Tracer().Annotate(1, "phase:read")
	_ = a.Retire(1, r)
	evs := a.Tracer().Streams[1]
	kinds := make([]EventKind, len(evs))
	for i, e := range evs {
		kinds[i] = e.Kind
	}
	want := []EventKind{EvAlloc, EvStore, EvLoad, EvNote, EvRetire}
	if len(kinds) != len(want) {
		t.Fatalf("events: %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d: got %v want %v", i, kinds[i], want[i])
		}
	}
	if len(a.Tracer().Streams[0]) != 0 {
		t.Fatal("thread 0 must have no events")
	}
	a.Tracer().Reset()
	if len(a.Tracer().Streams[1]) != 0 {
		t.Fatal("reset failed")
	}
}

func TestMetaOps(t *testing.T) {
	a := newTestArena(2, Reuse)
	a.MetaStore(1, 0, 5)
	if !a.MetaCAS(1, 0, 5, 6) {
		t.Fatal("meta CAS failed")
	}
	if a.MetaCAS(1, 0, 5, 7) {
		t.Fatal("meta CAS with stale expected succeeded")
	}
	if v := a.MetaLoad(1, 0); v != 6 {
		t.Fatalf("meta word after CAS: %d", v)
	}
}
