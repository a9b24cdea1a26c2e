package none_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/none"
	"repro/internal/smr/smrtest"
)

// TestNeverReclaims: the leak baseline retires but never frees.
func TestNeverReclaims(t *testing.T) {
	a := smrtest.NewArena(1, 1<<12, mem.Reuse)
	s := none.New(a, 1, 0)
	const churn = 500
	if err := smrtest.Churn(s, 0, churn); err != nil {
		t.Fatal(err)
	}
	smrtest.DrainAll(s, 1, 3)
	if got := a.Stats().Retired(); got != churn {
		t.Fatalf("retired backlog = %d, want %d (nothing reclaims)", got, churn)
	}
	if a.Stats().Snapshot().Reclaims != 0 {
		t.Fatal("the leak baseline must never reclaim")
	}
}

// TestExhaustsHeap: without reclamation the heap eventually OOMs — the
// concrete failure the robustness definitions guard against.
func TestExhaustsHeap(t *testing.T) {
	a := smrtest.NewArena(1, 128, mem.Reuse)
	s := none.New(a, 1, 0)
	err := smrtest.Churn(s, 0, 200)
	if err == nil {
		t.Fatal("expected OOM churning 200 nodes through a 128-slot heap")
	}
	if a.Stats().Snapshot().OOMs == 0 {
		t.Fatal("OOM not recorded")
	}
}

// TestProps pins the baseline's classification.
func TestProps(t *testing.T) {
	s := none.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if p.RequiresRollback || p.RequiresPhases {
		t.Error("the leak baseline is trivially easy to integrate")
	}
	if p.Robustness != smr.NotRobust {
		t.Errorf("robustness = %v, want not-robust", p.Robustness)
	}
	if p.Applicability != smr.StronglyApplicable {
		t.Errorf("applicability = %v, want strong (it never frees)", p.Applicability)
	}
}
