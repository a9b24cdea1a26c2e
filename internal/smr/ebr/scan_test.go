package ebr

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/smr/smrtest"
)

// TestPinnedScanExaminesFront: a thread parked inside an operation pins
// the epoch, so every push past the threshold scans a list that only
// grows. Each scan must stop at the list's first node, which is too young
// to free, instead of re-reading the whole backlog.
func TestPinnedScanExaminesFront(t *testing.T) {
	const threshold = 8
	e := New(smrtest.NewArena(2, 1<<12, mem.Reuse), 2, threshold)
	var log smrtest.ScanLog
	e.SetObserver(&log)

	e.BeginOp(1)
	if err := smrtest.Churn(e, 0, 10*threshold); err != nil {
		t.Fatal(err)
	}
	if log.Scans < 9*threshold {
		t.Fatalf("%d scans for %d retires past the threshold", log.Scans, 9*threshold)
	}
	if log.MaxScanned > 2 {
		t.Fatalf("a scan under the pinned epoch examined %d nodes, want at most 2", log.MaxScanned)
	}
}

// TestScanMatchesFullListRule checks the front-only scan against the rule
// it replaces, over seeded random schedules of brackets, retires and
// flushes on two threads.
func TestScanMatchesFullListRule(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		e := New(smrtest.NewArena(2, 1<<13, mem.Reuse), 2, 8)
		if err := smrtest.CheckEpochScans(e, &e.Base, e.epoch.Load, seed, 3000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAllocReclaimsExhaustedHeap: scans run on retire, and an operation
// whose allocation fails retires nothing. With the scan threshold above
// the heap size no retire ever scans, so the heap fills with retired
// nodes; allocation must then reclaim them itself once their epoch has
// passed, not fail forever.
func TestAllocReclaimsExhaustedHeap(t *testing.T) {
	e := New(smrtest.NewArena(1, 16, mem.Reuse), 1, 64)
	if err := smrtest.Churn(e, 0, 64); !errors.Is(err, mem.ErrOOM) {
		t.Fatalf("churn on a 16-slot heap: %v, want it exhausted", err)
	}
	for attempt := 1; ; attempt++ {
		err := smrtest.Churn(e, 0, 1)
		if err == nil {
			break
		}
		if attempt == 3 {
			t.Fatalf("allocation after exhaustion, attempt %d: %v", attempt, err)
		}
	}
}
