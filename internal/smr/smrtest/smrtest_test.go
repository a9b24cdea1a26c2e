package smrtest_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/smr/smrtest"
)

// newScheme builds the named registered scheme over a.
func newScheme(t *testing.T, name string, a *mem.Arena, n, threshold int) smr.Scheme {
	t.Helper()
	s, err := all.New(name, a, n, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewArenaFitsEveryScheme checks the helper's arena layout carries the
// full scheme-metadata block: every registered scheme must construct over
// it and complete a basic operation bracket.
func TestNewArenaFitsEveryScheme(t *testing.T) {
	for _, name := range all.Names() {
		a := smrtest.NewArena(2, 64, mem.Reuse)
		s := newScheme(t, name, a, 2, 0)
		if _, err := smrtest.AllocShared(s, 0, 42); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestChurnAccounting checks Churn does what the per-scheme tests rely
// on: ops full allocate-publish-retire lifecycles, all well-formed (no
// violations, no unsafe accesses), with retirement visible in the arena
// counters.
func TestChurnAccounting(t *testing.T) {
	for _, name := range []string{"ebr", "hp", "vbr", "none"} {
		t.Run(name, func(t *testing.T) {
			a := smrtest.NewArena(2, 512, mem.Reuse)
			s := newScheme(t, name, a, 2, 16)
			const ops = 100
			if err := smrtest.Churn(s, 0, ops); err != nil {
				t.Fatal(err)
			}
			sn := a.Stats().Snapshot()
			if sn.Allocs < ops {
				t.Errorf("allocs = %d, want >= %d", sn.Allocs, ops)
			}
			if sn.Retires != ops {
				t.Errorf("retires = %d, want %d", sn.Retires, ops)
			}
			if sn.Retires != sn.Retired+sn.Reclaims {
				t.Errorf("conservation: retires %d != retired %d + reclaims %d",
					sn.Retires, sn.Retired, sn.Reclaims)
			}
			if sn.Violations != 0 || sn.UnsafeAccesses() != 0 {
				t.Errorf("violations=%d unsafe=%d", sn.Violations, sn.UnsafeAccesses())
			}
		})
	}
}

// TestChurnSurfacesExhaustion checks Churn reports heap exhaustion rather
// than hiding it — the property the space-bound tests depend on when they
// size arenas tightly under the leak baseline.
func TestChurnSurfacesExhaustion(t *testing.T) {
	a := smrtest.NewArena(1, 8, mem.Reuse)
	s := newScheme(t, "none", a, 1, 0) // never reclaims
	if err := smrtest.Churn(s, 0, 64); err == nil {
		t.Fatal("churn past heap capacity reported no error")
	}
	if a.Stats().Snapshot().OOMs == 0 {
		t.Error("exhaustion not counted as OOM")
	}
}

// TestAllocSharedVisible checks AllocShared publishes a node whose value
// a guarded read observes.
func TestAllocSharedVisible(t *testing.T) {
	for _, name := range []string{"ebr", "none"} {
		a := smrtest.NewArena(1, 16, mem.Reuse)
		s := newScheme(t, name, a, 1, 0)
		r, err := smrtest.AllocShared(s, 0, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.BeginOp(0)
		v, ok := s.Read(0, r, 0)
		s.EndOp(0)
		if !ok || v != 7 {
			t.Errorf("%s: read = %d, %v; want 7, true", name, v, ok)
		}
	}
}

// TestDrainAllSettlesBacklog checks DrainAll empties a quiescent EBR
// backlog — the post-churn cleanup every conformance test performs.
func TestDrainAllSettlesBacklog(t *testing.T) {
	a := smrtest.NewArena(2, 512, mem.Reuse)
	s := newScheme(t, "ebr", a, 2, 1000) // threshold high: nothing reclaims mid-churn
	if err := smrtest.Churn(s, 0, 50); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Retired() == 0 {
		t.Fatal("churn left no backlog — drain would be vacuous")
	}
	smrtest.DrainAll(s, 2, 4)
	if got := a.Stats().Retired(); got != 0 {
		t.Errorf("backlog after drain = %d, want 0", got)
	}
}
