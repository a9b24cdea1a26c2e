package hp_test

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/hp"
	"repro/internal/smr/smrtest"
)

// TestProtectionBlocksReclamation checks the core HP guarantee: a node
// covered by a published hazard pointer survives scans, and is reclaimed
// as soon as the protection is dropped.
func TestProtectionBlocksReclamation(t *testing.T) {
	a := smrtest.NewArena(2, 1<<10, mem.Reuse)
	s := hp.New(a, 2, 4)

	// A shared anchor holds a link to the victim so T0 can protect it
	// through ReadPtr (protection is established via a source pointer).
	anchor, err := smrtest.AllocShared(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := smrtest.AllocShared(s, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(1)
	if !s.WritePtr(1, anchor, ds.WNext, victim) {
		t.Fatal("linking victim failed")
	}
	s.EndOp(1)

	s.BeginOp(0)
	got, ok := s.ReadPtr(0, 0, anchor, ds.WNext)
	if !ok || got != victim {
		t.Fatalf("ReadPtr = %v, %v; want %v", got, ok, victim)
	}

	s.BeginOp(1)
	s.Retire(1, victim)
	s.EndOp(1)
	smrtest.DrainAll(s, 2, 2) // scans must spare the protected node

	if st := a.StateOf(victim.Slot()); st != mem.Retired {
		t.Fatalf("protected node state = %v, want retired", st)
	}
	if v, err := a.Load(0, victim, 0); err != nil || v != 7 {
		t.Fatalf("reading protected node: %d, %v", v, err)
	}

	s.EndOp(0) // drops the hazard pointers
	smrtest.DrainAll(s, 2, 2)
	if a.Valid(victim) {
		t.Fatal("victim still valid after protection dropped and scan ran")
	}
}

// TestRobustnessBound checks HP's bound: with a stalled thread holding
// hazard pointers, the retired backlog stays below threshold + N*K no
// matter how long the churn runs (Definition 5.1).
func TestRobustnessBound(t *testing.T) {
	const threshold = 16
	a := smrtest.NewArena(2, 1<<14, mem.Reuse)
	s := hp.New(a, 2, threshold)

	anchor, err := smrtest.AllocShared(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	node, err := smrtest.AllocShared(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.WritePtr(0, anchor, ds.WNext, node)
	if _, ok := s.ReadPtr(0, 0, anchor, ds.WNext); !ok {
		t.Fatal("protect failed")
	}
	// T0 now stalls holding its hazard pointer; it never calls EndOp.

	for _, churn := range []int{200, 800, 3200} {
		if err := smrtest.Churn(s, 1, churn); err != nil {
			t.Fatal(err)
		}
		bound := uint64(threshold + 2*hp.K + 2) // +2 for anchor/node retired later
		if got := a.Stats().Retired(); got > bound {
			t.Fatalf("churn %d: retired backlog %d exceeds HP bound %d", churn, got, bound)
		}
	}
}

// TestValidationRetries checks the protect-and-validate loop: a source
// word that changes between protection and validation is re-read, and the
// final returned target matches the final source contents.
func TestValidationRetries(t *testing.T) {
	a := smrtest.NewArena(2, 1<<10, mem.Reuse)
	s := hp.New(a, 2, 4)
	anchor, err := smrtest.AllocShared(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := smrtest.AllocShared(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.WritePtr(0, anchor, ds.WNext, n1)
	got, ok := s.ReadPtr(0, 0, anchor, ds.WNext)
	if !ok || got != n1 {
		t.Fatalf("ReadPtr = %v, want %v", got, n1)
	}
	s.EndOp(0)
}

// TestProps pins HP's classification: robust, easy, restricted.
func TestProps(t *testing.T) {
	s := hp.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if p.RequiresRollback || p.RequiresPhases {
		t.Error("HP must classify as easily integrated")
	}
	if p.Robustness != smr.Robust {
		t.Errorf("HP robustness = %v, want robust", p.Robustness)
	}
	if p.Applicability != smr.Restricted {
		t.Errorf("HP applicability = %v, want restricted", p.Applicability)
	}
}
