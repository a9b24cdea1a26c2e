package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/core/adversary"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// TestClassifyIntegration pins Definition 5.3 per scheme: only the
// rollback/phase-free schemes are easy.
func TestClassifyIntegration(t *testing.T) {
	wantEasy := map[string]bool{
		"ebr": true, "qsbr": true, "hp": true, "ibr": true, "he": true,
		"rc": true, "none": true, "unsafefree": true,
		"vbr": false, "nbr": false, "pebr": false,
	}
	for _, scheme := range all.Names() {
		p, err := all.Props(scheme)
		if err != nil {
			t.Fatal(err)
		}
		rep := core.ClassifyIntegration(scheme, p)
		if rep.Easy != wantEasy[scheme] {
			t.Errorf("%s: easy = %v, want %v", scheme, rep.Easy, wantEasy[scheme])
		}
		if rep.Easy != p.EasyIntegration() {
			t.Errorf("%s: report and Props disagree", scheme)
		}
	}
	rep := core.ClassifyIntegration("nbr", smr.Props{RequiresRollback: true, RequiresPhases: true})
	if rep.WellFormed {
		t.Error("rollbacks must break Condition 4 (well-formedness)")
	}
	if !rep.PhaseDiscipline {
		t.Error("phase requirement not reported")
	}
}

// TestSafetyReport covers the verdict logic.
func TestSafetyReport(t *testing.T) {
	if !(core.SafetyReport{UnsafeLoads: 5}).Safe() {
		t.Error("discarded unsafe loads alone must not make a run unsafe")
	}
	if (core.SafetyReport{Faults: 1}).Safe() {
		t.Error("faults must make a run unsafe")
	}
	if (core.SafetyReport{StaleUses: 1}).Safe() {
		t.Error("stale uses must make a run unsafe")
	}
	if (core.SafetyReport{Violations: 1}).Safe() {
		t.Error("life-cycle violations must make a run unsafe")
	}
	if !strings.Contains((core.SafetyReport{Faults: 2}).String(), "UNSAFE") {
		t.Error("String must flag unsafe runs")
	}
}

// TestMeasureRobustness pins, per safe scheme, the robustness class
// telemetry's growth fit audits from a stalled reader's backlog on
// Harris's list. At the matrix's 128-key prefix it is the declared class.
// At Figure 1's one-key prefix the stalled era reservation pins almost
// nothing, so HE and IBR read robust: stronger than declared.
func TestMeasureRobustness(t *testing.T) {
	atFigure1 := map[string]smr.RobustnessClass{
		"ebr": smr.NotRobust, "qsbr": smr.NotRobust, "none": smr.NotRobust, "rc": smr.NotRobust,
		"he": smr.Robust, "ibr": smr.Robust,
		"hp": smr.Robust, "vbr": smr.Robust, "nbr": smr.Robust, "pebr": smr.Robust,
	}
	for _, scheme := range all.SafeNames() {
		t.Run(scheme, func(t *testing.T) {
			p, err := all.Props(scheme)
			if err != nil {
				t.Fatal(err)
			}
			row, err := core.Classify(func(a *mem.Arena, n, th int) smr.Scheme {
				return all.MustNew(scheme, a, n, th)
			}, 300)
			if err != nil {
				t.Fatal(err)
			}
			if got := row.Robustness.AuditedClass(); got != p.Robustness || !row.Consistent {
				t.Errorf("prefill 128: audited %v, declared %v, consistent %v (%s)",
					got, p.Robustness, row.Consistent, row.Robustness)
			}
			o, err := adversary.Figure1(scheme, 600, mem.Unmap)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := atFigure1[scheme]
			if !ok {
				t.Fatalf("no expectation recorded for scheme %q", scheme)
			}
			if got := o.Audit.AuditedClass(); got != want {
				t.Errorf("prefill 1: audited %v, want %v (%s)", got, want, o.Audit)
			}
			if stronger := o.Audit.Outcome == "stronger"; stronger != (want > p.Robustness) {
				t.Errorf("prefill 1: outcome %s against declared %v", o.Audit.Outcome, p.Robustness)
			}
		})
	}
}

// TestEBRStrongApplicability is the Appendix A experiment: EBR is
// applicable to every structure in the repository — safety, linearizable
// history, and completed operations on each.
func TestEBRStrongApplicability(t *testing.T) {
	for _, structure := range registry.Names() {
		rep, err := core.CheckApplicability("ebr", structure, core.WorkloadConfig{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", structure, err)
		}
		if !rep.Applicable {
			t.Errorf("EBR not applicable to %s: %s", structure, rep.Detail)
		}
	}
}

// TestApplicabilityAcrossSchemes validates Definition 5.4 positively for
// every (scheme, structure) pair the paper classifies as applicable.
func TestApplicabilityAcrossSchemes(t *testing.T) {
	if testing.Short() {
		// The full pairwise randomized stress matrix is minutes of work
		// under the race detector, and the optimistic schemes' retry loops
		// can livelock under its scheduling perturbation on small boxes.
		t.Skip("skipping the pairwise applicability stress matrix in short mode")
	}
	for _, scheme := range all.SafeNames() {
		for _, structure := range registry.Names() {
			if !registry.Applicable(scheme, structure) {
				continue
			}
			rep, err := core.CheckApplicability(scheme, structure, core.WorkloadConfig{Seed: 11})
			if err != nil {
				t.Fatalf("%s × %s: %v", scheme, structure, err)
			}
			if !rep.Applicable {
				t.Errorf("%s × %s: %s", scheme, structure, rep.Detail)
			}
		}
	}
}

// TestUnsafeBaselineDetected: the failure-injection scheme must be caught
// by the applicability harness (it frees immediately under live readers).
func TestUnsafeBaselineDetected(t *testing.T) {
	// A long unrecorded stress phase at maximum contention. Detection is
	// probabilistic (on a single core use-after-free only surfaces at
	// goroutine preemption points), so retry across seeds; missing it in
	// eight independent long runs would indicate a broken harness.
	for seed := uint64(1); seed <= 8; seed++ {
		rep, err := core.CheckApplicability("unsafefree", "harris", core.WorkloadConfig{
			Threads: 8, Rounds: 4, OpsPerThread: 3, KeyRange: 2, Seed: seed, StressOps: 150000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Applicable {
			return // detected
		}
	}
	t.Error("immediate free classified applicable in 8 runs — the harness missed use-after-free")
}

// TestERAMatrix builds the matrix and checks Theorem 6.1 empirically: two
// properties are achievable in every combination, three never.
func TestERAMatrix(t *testing.T) {
	m, err := core.BuildMatrix(400)
	if err != nil {
		t.Fatal(err)
	}
	if !m.TheoremHolds() {
		t.Fatalf("a scheme achieved all three ERA properties:\n%s", m)
	}
	// Every two-of-three combination is witnessed (Section 6: EBR, NBR,
	// HP are the three witnesses).
	type combo struct{ e, r, a bool }
	seen := map[combo]string{}
	for _, row := range m.Rows {
		seen[combo{row.Easy, row.Robust, row.Wide}] = row.Scheme
	}
	for _, c := range []combo{
		{true, false, true}, // EBR: easy + widely applicable
		{true, true, false}, // HP: easy + robust
		{false, true, true}, // NBR/VBR: robust + widely applicable
	} {
		if _, ok := seen[c]; !ok {
			t.Errorf("missing two-of-three witness %+v; have %v", c, seen)
		}
	}
	// All rows must be self-consistent (claims match measurements).
	for _, row := range m.Rows {
		if !row.Consistent {
			t.Errorf("%s: claims and measurements disagree", row.Scheme)
		}
	}
	if !strings.Contains(m.String(), "holds=true") {
		t.Error("matrix rendering must state the theorem verdict")
	}
}
