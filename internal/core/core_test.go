package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ds/drive"
	"repro/internal/ds/registry"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/telemetry"
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
		if rep.Easy != (!p.RequiresRollback && !p.RequiresPhases) {
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
			want, ok := atFigure1[scheme]
			if !ok {
				t.Fatalf("no expectation recorded for scheme %q", scheme)
			}
			p, err := all.Props(scheme)
			if err != nil {
				t.Fatal(err)
			}
			f, err := all.Get(scheme)
			if err != nil {
				t.Fatal(err)
			}
			row, err := core.Classify(f, 600)
			if err != nil {
				t.Fatal(err)
			}
			if got := row.Robustness.AuditedClass(); got != p.Robustness || !row.Consistent {
				t.Errorf("prefill 128: audited %v, declared %v, consistent %v (%s)",
					got, p.Robustness, row.Consistent, row.Robustness)
			}
			audit := row.Figure1.Audit
			if got := audit.AuditedClass(); got != want {
				t.Errorf("prefill 1: audited %v, want %v (%s)", got, want, audit)
			}
			if stronger := audit.Outcome == "stronger"; stronger != (want > p.Robustness) {
				t.Errorf("prefill 1: outcome %s against declared %v", audit.Outcome, p.Robustness)
			}
		})
	}
}

// TestERASlopeSeparatesNotRobust checks the matrix's audited robustness
// separates the classes by the stalled reader's backlog slope: one
// retired node per churn step (two operations) for EBR and the leaky
// baseline, none for VBR.
func TestERASlopeSeparatesNotRobust(t *testing.T) {
	verdicts := robustnessVerdicts(t)
	for _, s := range []string{"ebr", "none"} {
		if v := verdicts[s]; v.AuditedClass() != smr.NotRobust || v.Fit.Slope < 0.4 {
			t.Errorf("%s: audited %v, slope %.3f per op — want not-robust near 0.5 (unbounded backlog)", s, v.AuditedClass(), v.Fit.Slope)
		}
	}
	if v := verdicts["vbr"]; v.AuditedClass() != smr.Robust || v.Fit.Slope > 0.05 {
		t.Errorf("vbr: audited %v, slope %.3f per op — want robust near 0", v.AuditedClass(), v.Fit.Slope)
	}
}

// TestERAPlateauSeparatesWeaklyRobust is the Definition 5.1 vs 5.2
// separation at the matrix's 128-key prefix: a robust scheme's
// stalled-reader backlog plateaus at a few nodes, a weakly robust one's at
// the structure size (the stalled era/interval pins the whole structure
// alive at the stall).
func TestERAPlateauSeparatesWeaklyRobust(t *testing.T) {
	verdicts := robustnessVerdicts(t)
	for _, s := range []string{"hp", "vbr", "nbr"} {
		if v := verdicts[s]; v.AuditedClass() != smr.Robust || v.Fit.Plateau > 32 {
			t.Errorf("%s: audited %v, plateau %.0f — want robust, independent of the structure size", s, v.AuditedClass(), v.Fit.Plateau)
		}
	}
	for _, s := range []string{"he", "ibr"} {
		if v := verdicts[s]; v.AuditedClass() != smr.WeaklyRobust || v.Fit.Plateau < 100 {
			t.Errorf("%s: audited %v, plateau %.0f — want weakly-robust, tracking the structure size", s, v.AuditedClass(), v.Fit.Plateau)
		}
	}
}

// robustnessVerdicts builds the matrix and returns each safe scheme's
// audited robustness verdict.
func robustnessVerdicts(t *testing.T) map[string]telemetry.Verdict {
	t.Helper()
	m, err := core.BuildMatrix(300)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]telemetry.Verdict{}
	for _, row := range m.Rows {
		verdicts[row.Scheme] = row.Robustness
	}
	if len(verdicts) != len(all.SafeNames()) {
		t.Fatalf("matrix has %d scheme rows, want %d", len(verdicts), len(all.SafeNames()))
	}
	return verdicts
}

// TestEBRStrongApplicability is the Appendix A experiment: EBR is
// applicable to every structure in the repository — safety, linearizable
// history, and completed operations on each.
func TestEBRStrongApplicability(t *testing.T) {
	for _, structure := range registry.Names() {
		stress, rounds := core.ApplicabilityScripts(7)
		rep, err := core.CheckApplicability("ebr", structure, stress, rounds)
		if err != nil {
			t.Fatalf("%s: %v", structure, err)
		}
		if !rep.Applicable {
			t.Errorf("EBR not applicable to %s: %s", structure, rep.Detail)
		}
	}
}

// TestApplicabilityAcrossSchemes validates Definition 5.4 positively for
// every (scheme, structure) pair the paper classifies as applicable. A
// failing cell registry.KnownRed lists is logged and skipped.
func TestApplicabilityAcrossSchemes(t *testing.T) {
	if testing.Short() {
		// The full pairwise randomized stress matrix is minutes of work
		// under the race detector, and the optimistic schemes' retry loops
		// can livelock under its scheduling perturbation on small boxes.
		t.Skip("skipping the pairwise applicability stress matrix in short mode")
	}
	for _, scheme := range all.SafeNames() {
		p, err := all.Props(scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, structure := range registry.Names() {
			if info, _ := registry.Get(structure); !registry.Applicable(p, info) {
				continue
			}
			t.Run(scheme+"/"+structure, func(t *testing.T) {
				stress, rounds := core.ApplicabilityScripts(11)
				rep, err := core.CheckApplicability(scheme, structure, stress, rounds)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Applicable {
					return
				}
				if red, ok := registry.IsKnownRed(scheme, structure); ok {
					t.Skipf("known red (%s, since %s): %s", red.Symptom, red.Since, rep.Detail)
				}
				t.Error(rep.Detail)
			})
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
		rep, err := core.CheckApplicability("unsafefree", "harris",
			drive.Script{Threads: 8, Ops: 150000, KeyRange: 2, Seed: seed},
			drive.Script{Threads: 8, Ops: 3, Rounds: 4, KeyRange: 2, Seed: seed})
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
