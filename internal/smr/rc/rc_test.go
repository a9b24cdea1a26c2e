package rc_test

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/rc"
	"repro/internal/smr/smrtest"
)

// TestHeldReferenceBlocksReclamation: a thread-held reference (acquired
// via ReadPtr) keeps a retired node alive until EndOp releases it.
func TestHeldReferenceBlocksReclamation(t *testing.T) {
	a := smrtest.NewArena(2, 1<<10, mem.Reuse)
	s := rc.New(a, 2, 0, ds.WNext)

	anchor, err := smrtest.AllocShared(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := smrtest.AllocShared(s, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(1)
	if !s.WritePtr(1, anchor, ds.WNext, victim) { // link count -> 1
		t.Fatal("link failed")
	}
	s.EndOp(1)

	s.BeginOp(0)
	got, ok := s.ReadPtr(0, 0, anchor, ds.WNext) // held count -> 2
	if !ok || got.WithoutMark() != victim {
		t.Fatalf("ReadPtr = %v, %v", got, ok)
	}

	// Unlink and retire: the link count drops, the held count remains.
	s.BeginOp(1)
	if !s.WritePtr(1, anchor, ds.WNext, mem.NilRef) {
		t.Fatal("unlink failed")
	}
	s.Retire(1, victim)
	s.EndOp(1)

	if st := a.StateOf(victim.Slot()); st != mem.Retired {
		t.Fatalf("held node state = %v, want retired", st)
	}
	if v, err := a.Load(0, victim, 0); err != nil || v != 7 {
		t.Fatalf("reading held node: %d, %v", v, err)
	}

	s.EndOp(0) // releases the held count: the node frees
	if a.Valid(victim) {
		t.Fatal("victim still valid after release")
	}
}

// TestCascade: freeing a chain head cascades through link words.
func TestCascade(t *testing.T) {
	a := smrtest.NewArena(1, 1<<10, mem.Reuse)
	s := rc.New(a, 1, 0, ds.WNext)

	// c <- b <- a: retire in reverse so links hold each alive.
	c, err := smrtest.AllocShared(s, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smrtest.AllocShared(s, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, err := smrtest.AllocShared(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.WritePtr(0, b, ds.WNext, c) // c count 1
	s.WritePtr(0, x, ds.WNext, b) // b count 1
	s.Retire(0, c)
	s.Retire(0, b)
	if !a.Valid(b) || !a.Valid(c) {
		t.Fatal("linked nodes must survive their own retirement")
	}
	s.Retire(0, x) // head count 0: frees x -> b -> c
	s.EndOp(0)
	if a.Valid(x) || a.Valid(b) || a.Valid(c) {
		t.Fatalf("cascade incomplete: x=%v b=%v c=%v", a.Valid(x), a.Valid(b), a.Valid(c))
	}
}

// TestCycleLeak pins RC's classic non-robustness: a retired cycle is never
// reclaimed (Section 2 of the paper).
func TestCycleLeak(t *testing.T) {
	a := smrtest.NewArena(1, 1<<10, mem.Reuse)
	s := rc.New(a, 1, 0, ds.WNext)

	n1, err := smrtest.AllocShared(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := smrtest.AllocShared(s, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	s.WritePtr(0, n1, ds.WNext, n2)
	s.WritePtr(0, n2, ds.WNext, n1)
	s.Retire(0, n1)
	s.Retire(0, n2)
	s.EndOp(0)
	s.Flush(0)
	if !a.Valid(n1) || !a.Valid(n2) {
		t.Fatal("cycle members reclaimed — RC should leak cycles")
	}
	if got := a.Stats().Retired(); got != 2 {
		t.Fatalf("retired backlog = %d, want the 2 leaked cycle members", got)
	}
}

// TestProps pins RC's classification.
func TestProps(t *testing.T) {
	s := rc.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if p.RequiresRollback || p.RequiresPhases {
		t.Error("RC must classify as easily integrated")
	}
	if p.Robustness != smr.NotRobust {
		t.Errorf("RC robustness = %v, want not-robust (cycles)", p.Robustness)
	}
}
