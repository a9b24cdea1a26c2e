package adversary_test

import (
	"testing"

	"repro/internal/core/adversary"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// The Section 6 discussion asks which structures "behave like Harris's
// list" under the theorem. The generic stalled-traversal script answers it
// empirically for the two other traversal-through-retired-nodes structures
// in the repository.
//
// The skip list reproduces Harris's trichotomy exactly: a stalled tower
// descent holds stale lower-level links, so the protection-based schemes
// dereference reclaimed memory while the non-robust schemes pin the churn.
var skiplistWant = map[string]expectation{
	"ebr":        {safe: true, bounded: false},
	"qsbr":       {safe: true, bounded: false},
	"none":       {safe: true, bounded: false},
	"rc":         {safe: true, bounded: false}, // held towers pin the marked chain
	"hp":         {safe: false},
	"he":         {safe: false},
	"ibr":        {safe: false},
	"unsafefree": {safe: false},
	"vbr":        {safe: true, bounded: true},
	"nbr":        {safe: true, bounded: true},
	"pebr":       {safe: true, bounded: true},
}

// The external tree's profile differs in two instructive ways under THIS
// script: (1) every traversal step protects exactly the node it stands on
// and the resumed search reads nothing else, so even HP stays safe — the
// tree needs a Figure 2-style marked-run script to break protection, which
// the paper's open question leaves for structure-specific analysis; and
// (2) RC is *bounded* here because the tree detaches {internal, leaf}
// units that do not link to each other, unlike the lists' pinned chains.
var nmtreeWant = map[string]expectation{
	"ebr":        {safe: true, bounded: false},
	"qsbr":       {safe: true, bounded: false},
	"none":       {safe: true, bounded: false},
	"rc":         {safe: true, bounded: true},
	"hp":         {safe: true, bounded: true},
	"he":         {safe: true, bounded: true},
	"ibr":        {safe: true, bounded: true},
	"unsafefree": {safe: true, bounded: true},
	"vbr":        {safe: true, bounded: true},
	"nbr":        {safe: true, bounded: true},
	"pebr":       {safe: true, bounded: true},
}

// TestStallTraversalSkiplist pins the skip list's Harris-like trichotomy.
func TestStallTraversalSkiplist(t *testing.T) {
	runStallTable(t, "skiplist", skiplistWant)
}

// TestStallTraversalNMTree pins the external tree's contrasting profile.
func TestStallTraversalNMTree(t *testing.T) {
	runStallTable(t, "nmtree", nmtreeWant)
}

// TestStallTraversalHarris cross-checks the generic script against the
// dedicated Figure 1 execution on the robustness column (the safety
// column needs Figure 1's head-of-traversal stall: stalling at a visited
// node leaves only sentinel reads ahead, which every scheme survives).
func TestStallTraversalHarris(t *testing.T) {
	for _, scheme := range []string{"ebr", "hp", "vbr"} {
		o, err := adversary.StallTraversal(scheme, "harris", 600, mem.Unmap)
		if err != nil {
			t.Fatal(err)
		}
		f1, err := adversary.Figure1Of(factory(t, scheme), 1, 600, mem.Unmap)
		if err != nil {
			t.Fatal(err)
		}
		if o.Bounded != f1.Bounded {
			t.Errorf("%s: stall bounded=%v, figure1 bounded=%v", scheme, o.Bounded, f1.Bounded)
		}
	}
}

// TestStallSeriesShape: in the stalled traversals the backlog grows with
// the churn for EBR and stays flat for VBR, on every structure.
func TestStallSeriesShape(t *testing.T) {
	const k = 1000
	for _, structure := range []string{"harris", "nmtree", "skiplist"} {
		ebr, err := adversary.StallTraversal("ebr", structure, k, mem.Unmap)
		if err != nil {
			t.Fatal(err)
		}
		if ebr.Audit.AuditedClass() != smr.NotRobust || ebr.FinalRetired < k-64 {
			t.Errorf("%s: ebr backlog %s, final %d after %d churn steps — should track the churn", structure, ebr.Audit.Audited, ebr.FinalRetired, k)
		}
		vbr, err := adversary.StallTraversal("vbr", structure, k, mem.Unmap)
		if err != nil {
			t.Fatal(err)
		}
		if vbr.Audit.AuditedClass() != smr.Robust || vbr.PeakRetired > 32 {
			t.Errorf("%s: vbr backlog %s, peak %d — should stay flat", structure, vbr.Audit.Audited, vbr.PeakRetired)
		}
	}
}

func runStallTable(t *testing.T, structure string, want map[string]expectation) {
	t.Helper()
	for _, scheme := range all.Names() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			o, err := adversary.StallTraversal(scheme, structure, 600, mem.Unmap)
			if err != nil {
				t.Fatalf("stall traversal: %v", err)
			}
			w, ok := want[scheme]
			if !ok {
				t.Fatalf("no expectation recorded for scheme %q", scheme)
			}
			if o.Safe != w.safe {
				t.Errorf("safe = %v, want %v (%s)", o.Safe, w.safe, o)
			}
			if w.safe && o.Bounded != w.bounded {
				t.Errorf("bounded = %v, want %v (%s)", o.Bounded, w.bounded, o)
			}
		})
	}
}

// TestStallScriptsShortChurn runs both stalled-reader scripts at the
// shortest churns: the backlog is sampled after every churn step when the
// churn is under 20 steps (never at a zero cadence), plus once after the
// final flush, and K=2's two points are too few for a conclusive audit.
func TestStallScriptsShortChurn(t *testing.T) {
	for _, K := range []int{2, 19} {
		for _, structure := range []string{"figure1", "harris", "skiplist", "nmtree"} {
			var o *adversary.Outcome
			var err error
			if structure == "figure1" {
				o, err = adversary.Figure1Of(factory(t, "ebr"), 1, K, mem.Unmap)
			} else {
				o, err = adversary.StallTraversal("ebr", structure, K, mem.Unmap)
			}
			if err != nil {
				t.Fatalf("%s K=%d: %v", structure, K, err)
			}
			if o.K != K || o.Audit.Fit.Samples != K {
				t.Errorf("%s K=%d: K %d, %d samples, want %d", structure, K, o.K, o.Audit.Fit.Samples, K)
			}
			if o.Audit.Inconclusive() != (K == 2) {
				t.Errorf("%s K=%d: audit %s", structure, K, o.Audit)
			}
		}
	}
}

// TestStallTraversalBadInputs covers the error paths.
func TestStallTraversalBadInputs(t *testing.T) {
	if _, err := adversary.StallTraversal("ebr", "msqueue", 100, mem.Unmap); err == nil {
		t.Error("queue structure accepted")
	}
	if _, err := adversary.StallTraversal("ebr", "nosuch", 100, mem.Unmap); err == nil {
		t.Error("unknown structure accepted")
	}
	if _, err := adversary.StallTraversal("nosuch", "harris", 100, mem.Unmap); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := adversary.StallTraversal("ebr", "harris", 1, mem.Unmap); err == nil {
		t.Error("K=1 accepted")
	}
}
