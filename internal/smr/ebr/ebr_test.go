package ebr_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/ebr"
	"repro/internal/smr/smrtest"
)

// TestReclaimsWhenQuiescent checks that a single-threaded churn reclaims
// everything once flushed: epochs advance freely with no stragglers.
func TestReclaimsWhenQuiescent(t *testing.T) {
	a := smrtest.NewArena(1, 1<<12, mem.Reuse)
	s := ebr.New(a, 1, 8)
	if err := smrtest.Churn(s, 0, 500); err != nil {
		t.Fatal(err)
	}
	smrtest.DrainAll(s, 1, 3)
	if got := a.Stats().Retired(); got != 0 {
		t.Fatalf("retired backlog after drain = %d, want 0", got)
	}
	if a.Stats().Snapshot().Reclaims == 0 {
		t.Fatal("no reclamations happened")
	}
}

// TestStalledThreadBlocksReclamation is the paper's Section 5.1 claim that
// EBR is not even weakly robust: one thread parked inside an operation
// pins the epoch, and every node retired after its announcement stays
// unreclaimed forever — until the thread resumes.
func TestStalledThreadBlocksReclamation(t *testing.T) {
	a := smrtest.NewArena(2, 1<<13, mem.Reuse)
	s := ebr.New(a, 2, 8)

	s.BeginOp(1) // T1 stalls inside an operation, announcing the epoch

	const churn = 1000
	if err := smrtest.Churn(s, 0, churn); err != nil {
		t.Fatal(err)
	}
	smrtest.DrainAll(s, 1, 3)
	// The epoch advanced at most once past T1's announcement, so no node
	// retired after the stall can satisfy retireEpoch+2 <= current.
	if got := a.Stats().Retired(); got < churn-2*8 {
		t.Fatalf("retired backlog with stalled thread = %d, want ≥ %d", got, churn-2*8)
	}

	s.EndOp(1) // T1 resumes: quiescent
	smrtest.DrainAll(s, 2, 3)
	if got := a.Stats().Retired(); got != 0 {
		t.Fatalf("retired backlog after resume = %d, want 0", got)
	}
}

// TestGrowthIsUnbounded checks the backlog scales with the churn length,
// not with the data-structure size — the defining non-robustness shape.
func TestGrowthIsUnbounded(t *testing.T) {
	for _, churn := range []int{100, 400, 1600} {
		a := smrtest.NewArena(2, 1<<13, mem.Reuse)
		s := ebr.New(a, 2, 8)
		s.BeginOp(1)
		if err := smrtest.Churn(s, 0, churn); err != nil {
			t.Fatal(err)
		}
		got := int(a.Stats().Retired())
		if got < churn-16 {
			t.Fatalf("churn %d: backlog %d does not track churn", churn, got)
		}
	}
}

// TestProps pins the claimed classification.
func TestProps(t *testing.T) {
	s := ebr.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if p.RequiresRollback || p.RequiresPhases {
		t.Error("EBR must classify as easily integrated")
	}
	if p.Robustness != smr.NotRobust {
		t.Errorf("EBR robustness = %v, want not-robust", p.Robustness)
	}
	if p.Applicability != smr.StronglyApplicable {
		t.Errorf("EBR applicability = %v, want strong", p.Applicability)
	}
}
