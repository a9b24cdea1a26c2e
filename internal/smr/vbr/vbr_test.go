package vbr_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/smrtest"
	"repro/internal/smr/vbr"
)

// TestImmediateReclamation: VBR reclaims wholesale the moment the retire
// list fills; no grace period, no protection.
func TestImmediateReclamation(t *testing.T) {
	const threshold = 8
	a := smrtest.NewArena(1, 1<<12, mem.Reuse)
	s := vbr.New(a, 1, threshold)
	if err := smrtest.Churn(s, 0, 500); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Retired(); got >= threshold {
		t.Fatalf("retired backlog = %d, want < %d at all times", got, threshold)
	}
}

// TestStaleReadRollsBack: reading through a reference to a reclaimed node
// returns ok=false (the rollback signal) and never hands the stale value
// to the caller.
func TestStaleReadRollsBack(t *testing.T) {
	a := smrtest.NewArena(1, 1<<10, mem.Reuse)
	s := vbr.New(a, 1, 4)
	r, err := smrtest.AllocShared(s, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.Retire(0, r)
	s.EndOp(0)
	s.Flush(0)
	if a.Valid(r) {
		t.Fatal("node should be reclaimed after flush")
	}
	restartsBefore := s.Stats().Snapshot().Restarts
	if _, ok := s.Read(0, r, 0); ok {
		t.Fatal("stale read returned ok=true")
	}
	if got := s.Stats().Snapshot().Restarts; got != restartsBefore+1 {
		t.Fatalf("restarts = %d, want %d", got, restartsBefore+1)
	}
}

// TestStaleCASFails: an update attempt through an invalid reference is
// guaranteed to fail (the paper's description of VBR's write handling).
func TestStaleCASFails(t *testing.T) {
	a := smrtest.NewArena(1, 1<<10, mem.Reuse)
	s := vbr.New(a, 1, 4)
	r, err := smrtest.AllocShared(s, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.Retire(0, r)
	s.EndOp(0)
	s.Flush(0)
	swapped, ok := s.CAS(0, r, 0, 5, 6)
	if swapped || ok {
		t.Fatalf("stale CAS: swapped=%v ok=%v, want false/false", swapped, ok)
	}
	if s.Stats().Snapshot().StaleUses != 0 {
		t.Fatal("a refused stale CAS must not count as a stale use")
	}
}

// TestStallImmune: a stalled thread cannot delay VBR reclamation at all —
// the strongest robustness in the repository.
func TestStallImmune(t *testing.T) {
	const threshold = 8
	a := smrtest.NewArena(2, 1<<13, mem.Reuse)
	s := vbr.New(a, 2, threshold)
	s.BeginOp(1) // stalled mid-operation
	for _, churn := range []int{200, 800, 3200} {
		if err := smrtest.Churn(s, 0, churn); err != nil {
			t.Fatal(err)
		}
		if got := a.Stats().Retired(); got >= threshold {
			t.Fatalf("churn %d: retired backlog %d, want < %d", churn, got, threshold)
		}
	}
}

// TestProps pins VBR's classification: robust + widely applicable, not
// easily integrated (rollbacks).
func TestProps(t *testing.T) {
	s := vbr.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if !p.RequiresRollback && !p.RequiresPhases {
		t.Error("VBR must not classify as easily integrated (rollbacks)")
	}
	if p.Robustness != smr.Robust {
		t.Errorf("VBR robustness = %v, want robust", p.Robustness)
	}
	if p.Applicability != smr.WidelyApplicable {
		t.Errorf("VBR applicability = %v, want wide", p.Applicability)
	}
	if p.SelfContained {
		t.Error("VBR must report SelfContained=false (needs wide CAS)")
	}
}
