package he_test

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/he"
	"repro/internal/smr/smrtest"
)

// TestEraProtection checks that a node whose lifetime contains a published
// era survives scans and reclaims once the era slot clears.
func TestEraProtection(t *testing.T) {
	a := smrtest.NewArena(2, 1<<12, mem.Reuse)
	s := he.New(a, 2, 4)

	anchor, err := smrtest.AllocShared(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := smrtest.AllocShared(s, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(1)
	s.WritePtr(1, anchor, ds.WNext, victim)
	s.EndOp(1)

	s.BeginOp(0)
	if _, ok := s.ReadPtr(0, 0, anchor, ds.WNext); !ok {
		t.Fatal("ReadPtr failed")
	}
	s.BeginOp(1)
	s.Retire(1, victim)
	s.EndOp(1)
	smrtest.DrainAll(s, 2, 2)
	if st := a.StateOf(victim.Slot()); st != mem.Retired {
		t.Fatalf("era-protected node state = %v, want retired", st)
	}

	s.EndOp(0)
	smrtest.DrainAll(s, 2, 2)
	if a.Valid(victim) {
		t.Fatal("victim still valid after era cleared")
	}
}

// TestStalledEraBound: a stalled thread's published era pins only nodes
// whose lifetime contains that era; later allocations reclaim freely.
func TestStalledEraBound(t *testing.T) {
	const threshold = 16
	a := smrtest.NewArena(2, 1<<14, mem.Reuse)
	s := he.New(a, 2, threshold)

	anchor, err := smrtest.AllocShared(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	if _, ok := s.ReadPtr(0, 0, anchor, ds.WNext); !ok {
		t.Fatal("publishing an era failed")
	}
	// T0 stalls with a published era.

	for _, churn := range []int{200, 800, 3200} {
		if err := smrtest.Churn(s, 1, churn); err != nil {
			t.Fatal(err)
		}
		bound := uint64(threshold + 64)
		if got := a.Stats().Retired(); got > bound {
			t.Fatalf("churn %d: retired backlog %d exceeds HE bound %d", churn, got, bound)
		}
	}

	s.EndOp(0)
	smrtest.DrainAll(s, 2, 2)
	if got := a.Stats().Retired(); got > uint64(threshold) {
		t.Fatalf("backlog after eras cleared = %d", got)
	}
}

// TestProps pins HE's classification.
func TestProps(t *testing.T) {
	s := he.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if p.RequiresRollback || p.RequiresPhases {
		t.Error("HE must classify as easily integrated")
	}
	if p.Robustness != smr.WeaklyRobust {
		t.Errorf("HE robustness = %v, want weakly-robust (a published era pins everything alive at it)", p.Robustness)
	}
	if p.Applicability != smr.Restricted {
		t.Errorf("HE applicability = %v, want restricted", p.Applicability)
	}
}
