package smr_test

import (
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

// TestRetireListThreshold checks the Base building block.
func TestRetireListThreshold(t *testing.T) {
	a := mem.NewArena(mem.Config{Slots: 64, PayloadWords: 1, Threads: 1})
	b := smr.NewBase(a, 1, 3)
	r1, _ := a.Alloc(0)
	r2, _ := a.Alloc(0)
	r3, _ := a.Alloc(0)
	if b.PushRetired(0, r1) {
		t.Error("threshold hit after 1 push")
	}
	if b.PushRetired(0, r2) {
		t.Error("threshold hit after 2 pushes")
	}
	if !b.PushRetired(0, r3) {
		t.Error("threshold not hit after 3 pushes")
	}
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
