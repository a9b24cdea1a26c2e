package pebr

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr/smrtest"
)

// TestPinnedScanExaminesFront: a thread parked inside an operation pins
// the epoch until it is ejected, and every push past the threshold scans.
// Each scan must stop at the first node too young to free: it examines at
// most one node it does not reclaim, so while the pin holds it examines
// one node, instead of re-reading the whole backlog.
func TestPinnedScanExaminesFront(t *testing.T) {
	const threshold = 8
	p := New(smrtest.NewArena(2, 1<<12, mem.Reuse), 2, threshold)
	var log smrtest.ScanLog
	p.SetObserver(&log)

	p.BeginOp(1)
	if err := smrtest.Churn(p, 0, 10*threshold); err != nil {
		t.Fatal(err)
	}
	if log.Scans <= EjectAfter {
		t.Fatalf("%d scans for %d retires past the threshold", log.Scans, 9*threshold)
	}
	if log.MaxKept > 1 {
		t.Fatalf("a scan examined %d nodes it did not reclaim, want at most 1", log.MaxKept)
	}
}

// TestScanMatchesFullListRule checks the front-only scan against the rule
// it replaces, over seeded random schedules of brackets, retires and
// flushes on two threads (ejections included).
func TestScanMatchesFullListRule(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		p := New(smrtest.NewArena(2, 1<<13, mem.Reuse), 2, 8)
		if err := smrtest.CheckEpochScans(p, &p.Base, p.epoch.Load, seed, 3000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
