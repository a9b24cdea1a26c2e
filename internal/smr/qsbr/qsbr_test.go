package qsbr_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/qsbr"
	"repro/internal/smr/smrtest"
)

// TestReclaimsAfterGracePeriod checks the two-bucket rotation: retired
// nodes wait one full grace period, then reclaim.
func TestReclaimsAfterGracePeriod(t *testing.T) {
	a := smrtest.NewArena(1, 1<<12, mem.Reuse)
	s := qsbr.New(a, 1, 8)
	if err := smrtest.Churn(s, 0, 500); err != nil {
		t.Fatal(err)
	}
	smrtest.DrainAll(s, 1, 3)
	if got := a.Stats().Retired(); got != 0 {
		t.Fatalf("retired backlog after drain = %d, want 0", got)
	}
}

// TestStalledThreadBlocksGracePeriod: QSBR shares EBR's failure mode — a
// thread that never passes a quiescent state blocks every grace period.
func TestStalledThreadBlocksGracePeriod(t *testing.T) {
	a := smrtest.NewArena(2, 1<<13, mem.Reuse)
	s := qsbr.New(a, 2, 8)

	s.BeginOp(1) // T1 enters a critical section and stalls

	const churn = 1000
	if err := smrtest.Churn(s, 0, churn); err != nil {
		t.Fatal(err)
	}
	smrtest.DrainAll(s, 1, 3)
	// The first scan's snapshot predates the stall only if taken before
	// BeginOp(1); here it is taken during churn, so T1 is online in every
	// snapshot and no grace period ever elapses beyond the first rotation.
	if got := a.Stats().Retired(); got < churn-3*8 {
		t.Fatalf("retired backlog with stalled thread = %d, want ≥ %d", got, churn-3*8)
	}

	s.EndOp(1)
	smrtest.DrainAll(s, 2, 3)
	if got := a.Stats().Retired(); got != 0 {
		t.Fatalf("retired backlog after resume = %d, want 0", got)
	}
}

// TestProps pins QSBR's classification.
func TestProps(t *testing.T) {
	s := qsbr.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if p.RequiresRollback || p.RequiresPhases {
		t.Error("QSBR must classify as easily integrated")
	}
	if p.Robustness != smr.NotRobust {
		t.Errorf("QSBR robustness = %v, want not-robust", p.Robustness)
	}
}
