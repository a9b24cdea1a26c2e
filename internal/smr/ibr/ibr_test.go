package ibr_test

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/ibr"
	"repro/internal/smr/smrtest"
)

// TestIntervalProtection checks that a node whose [birth, retire] interval
// overlaps an active reservation survives scans and is reclaimed after the
// reader finishes.
func TestIntervalProtection(t *testing.T) {
	a := smrtest.NewArena(2, 1<<12, mem.Reuse)
	s := ibr.New(a, 2, 4)

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

	s.BeginOp(0) // reservation starts at the current era
	if _, ok := s.ReadPtr(0, 0, anchor, ds.WNext); !ok {
		t.Fatal("ReadPtr failed")
	}
	s.BeginOp(1)
	s.Retire(1, victim) // retire era >= reservation lower bound
	s.EndOp(1)
	smrtest.DrainAll(s, 2, 2)
	if st := a.StateOf(victim.Slot()); st != mem.Retired {
		t.Fatalf("reserved-interval node state = %v, want retired", st)
	}

	s.EndOp(0)
	smrtest.DrainAll(s, 2, 2)
	if a.Valid(victim) {
		t.Fatal("victim still valid after reservation cleared")
	}
}

// TestStalledReaderDoesNotPinNewNodes is the weak-robustness shape: a
// stalled reservation holds only nodes born before its upper bound; nodes
// allocated afterwards reclaim freely, so the backlog stays bounded while
// churn is unbounded (contrast with EBR's unbounded backlog).
func TestStalledReaderDoesNotPinNewNodes(t *testing.T) {
	const threshold = 16
	a := smrtest.NewArena(2, 1<<14, mem.Reuse)
	s := ibr.New(a, 2, threshold)

	s.BeginOp(0) // T0 stalls with a reservation at the current era

	var lastBacklog uint64
	for _, churn := range []int{200, 800, 3200} {
		if err := smrtest.Churn(s, 1, churn); err != nil {
			t.Fatal(err)
		}
		lastBacklog = a.Stats().Retired()
		// Nodes born after T0's reservation upper bound have birth > upper
		// and are reclaimed on scan; the pinned set is those alive around
		// the stall, bounded by threshold plus the per-era allocation rate.
		bound := uint64(threshold + 64)
		if lastBacklog > bound {
			t.Fatalf("churn %d: retired backlog %d exceeds IBR bound %d", churn, lastBacklog, bound)
		}
	}

	s.EndOp(0)
	smrtest.DrainAll(s, 2, 2)
	if got := a.Stats().Retired(); got > uint64(threshold) {
		t.Fatalf("backlog after reader finished = %d", got)
	}
}

// TestProps pins IBR's classification: weakly robust, easy, restricted.
func TestProps(t *testing.T) {
	s := ibr.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if p.RequiresRollback || p.RequiresPhases {
		t.Error("IBR must classify as easily integrated")
	}
	if p.Robustness != smr.WeaklyRobust {
		t.Errorf("IBR robustness = %v, want weakly-robust", p.Robustness)
	}
	if p.Applicability != smr.Restricted {
		t.Errorf("IBR applicability = %v, want restricted", p.Applicability)
	}
}
