package smr_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/smr"
)

// TestEasyIntegration pins Definition 5.3's derivation from the property
// sheet (core.ClassifyIntegration): any rollback or phase requirement
// disqualifies a scheme.
func TestEasyIntegration(t *testing.T) {
	cases := []struct {
		name string
		p    smr.Props
		want bool
	}{
		{"plain", smr.Props{}, true},
		{"rollback", smr.Props{RequiresRollback: true}, false},
		{"phases", smr.Props{RequiresPhases: true}, false},
		{"both", smr.Props{RequiresRollback: true, RequiresPhases: true}, false},
		{"meta-words-allowed", smr.Props{MetaWordsUsed: 3}, true},
	}
	for _, c := range cases {
		if got := core.ClassifyIntegration(c.name, c.p).Easy; got != c.want {
			t.Errorf("%s: Easy = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestClassStrings covers the enum formatting used in reports.
func TestClassStrings(t *testing.T) {
	if smr.Robust.String() != "robust" || smr.WeaklyRobust.String() != "weakly-robust" || smr.NotRobust.String() != "not-robust" {
		t.Error("RobustnessClass strings wrong")
	}
	if smr.StronglyApplicable.String() != "strong" || smr.WidelyApplicable.String() != "wide" ||
		smr.Restricted.String() != "restricted" || smr.Unsafe.String() != "unsafe" {
		t.Error("ApplicabilityClass strings wrong")
	}
}

// TestRetireListThreshold: Base.Retire pushes onto the thread's retire
// list and runs the scheme's scan hook exactly when the list reaches the
// threshold; Flush runs it regardless of length.
func TestRetireListThreshold(t *testing.T) {
	a := mem.NewArena(mem.Config{Slots: 64, PayloadWords: 1, Threads: 1})
	var scans []int
	var b smr.Base
	b = smr.NewBase(a, 1, 3, func(tid int) { scans = append(scans, len(b.Lists[tid].Refs)) })
	for i := 1; i <= 3; i++ {
		r, _ := a.Alloc(0)
		b.Retire(0, r)
		if got := len(b.Lists[0].Refs); got != i {
			t.Fatalf("after %d retires the list holds %d nodes", i, got)
		}
		if want := i / 3; len(scans) != want {
			t.Fatalf("after %d retires the hook ran %d times, want %d", i, len(scans), want)
		}
	}
	if scans[0] != 3 {
		t.Errorf("hook saw a list of %d nodes, want the threshold 3", scans[0])
	}
	b.Flush(0)
	if len(scans) != 2 {
		t.Errorf("Flush did not run the hook")
	}
}

// TestCompactKeepsThePredicatesNodes: over a seeded list and predicate,
// Base.Compact keeps exactly the nodes the predicate keeps, in list
// order, reclaims the rest in the arena, and reports (examined,
// reclaimed) to the observer.
func TestCompactKeepsThePredicatesNodes(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		a := mem.NewArena(mem.Config{Slots: 128, PayloadWords: 1, Threads: 1})
		b := smr.NewBase(a, 1, 1000, nil)
		var log scanLog
		b.SetObserver(&log)
		keep := map[mem.Ref]bool{}
		var want []mem.Ref
		for i := rng.IntN(100); i >= 0; i-- {
			r, err := a.Alloc(0)
			if err != nil {
				t.Fatal(err)
			}
			b.Retire(0, r)
			if keep[r] = rng.IntN(3) == 0; keep[r] {
				want = append(want, r)
			}
		}
		all := slices.Clone(b.Lists[0].Refs)
		b.Compact(0, func(r mem.Ref) bool { return keep[r] })
		if !slices.Equal(b.Lists[0].Refs, want) {
			t.Fatalf("seed %d: kept %v, predicate keeps %v", seed, b.Lists[0].Refs, want)
		}
		for _, r := range all {
			if a.Valid(r) != keep[r] {
				t.Fatalf("seed %d: node %v valid=%v after the scan, kept=%v", seed, r, a.Valid(r), keep[r])
			}
		}
		if got := a.Stats().Snapshot().Reclaims; got != uint64(len(all)-len(want)) {
			t.Fatalf("seed %d: arena reclaimed %d nodes, want %d", seed, got, len(all)-len(want))
		}
		if want := (scanLog{1, len(all), len(all) - len(want)}); log != want {
			t.Fatalf("seed %d: observer saw %+v, want %+v", seed, log, want)
		}
		if b.S.Scans.Load() != 1 {
			t.Fatalf("seed %d: %d scans counted, want 1", seed, b.S.Scans.Load())
		}
	}
}

// scanLog records the scans an observer sees.
type scanLog struct{ scans, scanned, reclaimed int }

func (l *scanLog) SMRScan(tid, scanned, reclaimed int) {
	l.scans++
	l.scanned, l.reclaimed = scanned, reclaimed
}

// TestStatsSnapshot checks counter copying.
func TestStatsSnapshot(t *testing.T) {
	var s smr.Stats
	s.Restarts.Add(2)
	s.StaleUses.Add(3)
	s.Neutralizations.Add(5)
	s.Scans.Add(7)
	sn := s.Snapshot()
	if sn.Restarts != 2 || sn.StaleUses != 3 || sn.Neutralizations != 5 || sn.Scans != 7 {
		t.Errorf("snapshot = %+v", sn)
	}
}
