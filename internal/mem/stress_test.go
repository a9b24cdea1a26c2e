package mem

import (
	"sync"
	"testing"
)

// TestConcurrentLifecycleAccounting hammers the arena from several
// goroutines and checks the conservation law: every allocation is exactly
// one of {active, retired, reclaimed} at the end, with no life-cycle
// violations.
func TestConcurrentLifecycleAccounting(t *testing.T) {
	const (
		threads = 8
		perT    = 20000
	)
	a := NewArena(Config{Slots: 1 << 10, PayloadWords: 2, Threads: threads, Mode: Reuse})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var live []Ref
			for i := 0; i < perT; i++ {
				if len(live) < 16 {
					r, err := a.Alloc(tid)
					if err != nil {
						continue // transient OOM under contention is fine
					}
					if err := a.Store(tid, r, 0, uint64(i)); err != nil {
						t.Errorf("store on fresh node: %v", err)
						return
					}
					live = append(live, r)
					continue
				}
				r := live[0]
				live = live[1:]
				if err := a.Retire(tid, r); err != nil {
					t.Errorf("retire: %v", err)
					return
				}
				if err := a.Reclaim(tid, r); err != nil {
					t.Errorf("reclaim: %v", err)
					return
				}
			}
			for _, r := range live {
				if err := a.Retire(tid, r); err != nil {
					t.Errorf("final retire: %v", err)
				}
			}
		}(tid)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sn := a.Stats().Snapshot()
	if sn.Violations != 0 {
		t.Fatalf("%d life-cycle violations", sn.Violations)
	}
	if sn.Allocs != sn.Reclaims+sn.Active+sn.Retired {
		t.Fatalf("conservation broken: allocs %d != reclaims %d + active %d + retired %d",
			sn.Allocs, sn.Reclaims, sn.Active, sn.Retired)
	}
	if sn.Active != 0 {
		t.Fatalf("active = %d after retiring everything", sn.Active)
	}
}

// TestConcurrentTagInvalidation: references taken before a reclaim are
// invalid after it, even while other threads churn the same slots.
func TestConcurrentTagInvalidation(t *testing.T) {
	a := NewArena(Config{Slots: 8, PayloadWords: 1, Threads: 2, Mode: Reuse})
	var stale []Ref
	for round := 0; round < 2000; round++ {
		r, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Retire(0, r); err != nil {
			t.Fatal(err)
		}
		if err := a.Reclaim(0, r); err != nil {
			t.Fatal(err)
		}
		stale = append(stale, r)
		if len(stale) > 64 {
			stale = stale[1:]
		}
		for _, s := range stale {
			if a.Valid(s) {
				t.Fatalf("round %d: stale reference %v still valid", round, s)
			}
		}
	}
	if a.Stats().Snapshot().UnsafeLoads != 0 {
		t.Fatal("Valid() must not count as an access")
	}
}

// TestUnmapModeShrinksHeap: system-space slots never return.
func TestUnmapModeShrinksHeap(t *testing.T) {
	const slots = 64
	a := NewArena(Config{Slots: slots, PayloadWords: 1, Threads: 1, Mode: Unmap})
	for i := 0; i < slots; i++ {
		r, err := a.Alloc(0)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if err := a.Retire(0, r); err != nil {
			t.Fatal(err)
		}
		if err := a.Reclaim(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("allocation succeeded after the whole heap moved to system space")
	}
}
