package unsafefree_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/smrtest"
	"repro/internal/smr/unsafefree"
)

// TestImmediateFree: retire reclaims instantly, invalidating every
// outstanding reference.
func TestImmediateFree(t *testing.T) {
	a := smrtest.NewArena(1, 1<<10, mem.Reuse)
	s := unsafefree.New(a, 1, 0)
	r, err := smrtest.AllocShared(s, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.Retire(0, r)
	s.EndOp(0)
	if a.Valid(r) {
		t.Fatal("reference still valid after immediate free")
	}
	if got := a.Stats().Retired(); got != 0 {
		t.Fatalf("retired backlog = %d, want 0", got)
	}
}

// TestUseAfterFreeDetected: reading through the dangling reference is the
// failure-injection point — the arena accounts an unsafe access, and the
// scheme hands the stale value over (a Definition 4.2 violation).
func TestUseAfterFreeDetected(t *testing.T) {
	a := smrtest.NewArena(1, 1<<10, mem.Reuse)
	s := unsafefree.New(a, 1, 0)
	r, err := smrtest.AllocShared(s, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.Retire(0, r)
	if _, ok := s.Read(0, r, 0); !ok {
		t.Fatal("the unsafe baseline never rolls back")
	}
	s.EndOp(0)
	if a.Stats().Snapshot().UnsafeLoads == 0 {
		t.Fatal("use-after-free not accounted as an unsafe load")
	}
	if s.Stats().Snapshot().StaleUses == 0 {
		t.Fatal("stale value escape not accounted")
	}
}

// TestSegfaultInUnmapMode: with reclamation to system space, the dangling
// read is a simulated segmentation fault.
func TestSegfaultInUnmapMode(t *testing.T) {
	a := smrtest.NewArena(1, 1<<10, mem.Unmap)
	s := unsafefree.New(a, 1, 0)
	r, err := smrtest.AllocShared(s, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.Retire(0, r)
	s.Read(0, r, 0)
	s.EndOp(0)
	if a.Stats().Snapshot().Faults == 0 {
		t.Fatal("access to system space not recorded as a fault")
	}
}

// TestProps: the baseline reports itself unsafe.
func TestProps(t *testing.T) {
	s := unsafefree.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	if s.Props().Applicability != smr.Unsafe {
		t.Errorf("applicability = %v, want unsafe", s.Props().Applicability)
	}
}
