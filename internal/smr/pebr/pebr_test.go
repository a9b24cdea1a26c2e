package pebr_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/pebr"
	"repro/internal/smr/smrtest"
)

// TestReclaimsWhenQuiescent: plain EBR behaviour with no stalls.
func TestReclaimsWhenQuiescent(t *testing.T) {
	a := smrtest.NewArena(1, 1<<12, mem.Reuse)
	s := pebr.New(a, 1, 8)
	if err := smrtest.Churn(s, 0, 500); err != nil {
		t.Fatal(err)
	}
	smrtest.DrainAll(s, 1, 3)
	if got := a.Stats().Retired(); got != 0 {
		t.Fatalf("retired backlog after drain = %d, want 0", got)
	}
}

// TestEjectionUnblocksReclamation is the scheme's reason to exist: a
// stalled thread is ejected after EjectAfter blocked advances and the
// backlog stays bounded where EBR's would grow without bound.
func TestEjectionUnblocksReclamation(t *testing.T) {
	const threshold = 16
	a := smrtest.NewArena(2, 1<<14, mem.Reuse)
	s := pebr.New(a, 2, threshold)

	s.BeginOp(1) // T1 stalls inside an operation

	for _, churn := range []int{200, 800, 3200} {
		if err := smrtest.Churn(s, 0, churn); err != nil {
			t.Fatal(err)
		}
		// Ejection keeps the epoch moving: the backlog is bounded by the
		// retire threshold plus the two-epoch reclamation lag.
		bound := uint64(threshold * (pebr.EjectAfter + 3))
		if got := a.Stats().Retired(); got > bound {
			t.Fatalf("churn %d: retired backlog %d exceeds PEBR bound %d", churn, got, bound)
		}
	}

	// The stalled thread's next access observes the ejection and rolls
	// back instead of touching possibly reclaimed memory.
	anchor, err := smrtest.AllocShared(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Read(1, anchor, 0); ok {
		t.Fatal("ejected thread's read must roll back")
	}
	if s.Stats().Snapshot().Restarts == 0 {
		t.Fatal("no restart recorded for the ejection")
	}
	// After the rollback the thread has rejoined the protocol.
	if _, ok := s.Read(1, anchor, 0); !ok {
		t.Fatal("read after rejoining must succeed")
	}
	s.EndOp(1)
}

// TestStaleReadRollsBack: post-ejection reads of reclaimed nodes restart
// and never surface stale values.
func TestStaleReadRollsBack(t *testing.T) {
	a := smrtest.NewArena(1, 1<<10, mem.Reuse)
	s := pebr.New(a, 1, 4)
	r, err := smrtest.AllocShared(s, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.Retire(0, r)
	s.EndOp(0)
	smrtest.DrainAll(s, 1, 4)
	if a.Valid(r) {
		t.Fatal("node should be reclaimed after drains")
	}
	if _, ok := s.Read(0, r, 0); ok {
		t.Fatal("stale read returned ok=true")
	}
	if s.Stats().Snapshot().StaleUses != 0 {
		t.Fatal("stale value escaped")
	}
}

// TestProps pins the classification: robust + wide, not easy.
func TestProps(t *testing.T) {
	s := pebr.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if !p.RequiresRollback && !p.RequiresPhases {
		t.Error("PEBR must not classify as easily integrated (ejection restarts)")
	}
	if p.Robustness != smr.Robust {
		t.Errorf("PEBR robustness = %v, want robust", p.Robustness)
	}
	if p.Applicability != smr.WidelyApplicable {
		t.Errorf("PEBR applicability = %v, want wide", p.Applicability)
	}
	if p.SelfContained {
		t.Error("PEBR must report SelfContained=false (needs process-wide fences)")
	}
}
