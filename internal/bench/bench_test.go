package bench_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/smr/all"
)

// TestThroughputRuns smoke-tests the runner for one scheme per family.
func TestThroughputRuns(t *testing.T) {
	for _, scheme := range []string{"ebr", "hp", "vbr", "none"} {
		structure := "michael"
		r, err := bench.Throughput(scheme, structure, bench.ThroughputConfig{
			Threads: 2, OpsPerThread: 3000, KeyRange: 128, Mix: bench.MixBalanced, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r.Ops != 6000 || r.MopsPerSec <= 0 {
			t.Errorf("%s: row = %+v", scheme, r)
		}
	}
}

// TestThroughputRejectsNonSets: the runner only accepts set structures.
func TestThroughputRejectsNonSets(t *testing.T) {
	if _, err := bench.Throughput("ebr", "msqueue", bench.ThroughputConfig{}); err == nil {
		t.Fatal("expected an error for a queue structure")
	}
	if _, err := bench.Throughput("ebr", "nosuch", bench.ThroughputConfig{}); err == nil {
		t.Fatal("expected an error for an unknown structure")
	}
}

// TestSpaceSweepShape checks the experiment separates the robustness
// classes: per-churn backlog near 1 for EBR, near 0 for VBR.
func TestSpaceSweepShape(t *testing.T) {
	rows, err := bench.SpaceSweep(800)
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]bench.SpaceRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	if r := byScheme["ebr"]; r.PerChurn < 0.8 {
		t.Errorf("ebr per-churn = %.3f, want near 1 (unbounded backlog)", r.PerChurn)
	}
	if r := byScheme["vbr"]; r.PerChurn > 0.1 {
		t.Errorf("vbr per-churn = %.3f, want near 0 (robust)", r.PerChurn)
	}
	if r := byScheme["none"]; r.PerChurn < 0.8 {
		t.Errorf("none per-churn = %.3f, want near 1", r.PerChurn)
	}
	var sb strings.Builder
	rows.WriteTable(&sb)
	if !strings.Contains(sb.String(), "ebr") {
		t.Error("table rendering lost rows")
	}
}

// TestStallSeriesShape: the backlog curve grows for EBR and stays flat
// for VBR.
func TestStallSeriesShape(t *testing.T) {
	ebr, err := bench.StallSeries("ebr", 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	vbr, err := bench.StallSeries("vbr", 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ebr) != len(vbr) || len(ebr) == 0 {
		t.Fatalf("series lengths: ebr %d, vbr %d", len(ebr), len(vbr))
	}
	if last := ebr[len(ebr)-1]; last.Retired < uint64(last.Step)-64 {
		t.Errorf("ebr backlog %d at step %d — should track the churn", last.Retired, last.Step)
	}
	first, last := vbr[0], vbr[len(vbr)-1]
	if last.Retired > first.Retired+32 {
		t.Errorf("vbr backlog grew from %d to %d — should stay flat", first.Retired, last.Retired)
	}
	var sb strings.Builder
	bench.StallCurves{"ebr": ebr, "vbr": vbr}.WriteTable(&sb)
	if !strings.Contains(sb.String(), "step") {
		t.Error("series rendering lost header")
	}
}

// TestMichaelComparisonShape: the Section 6 comparison runs its three
// (scheme, structure) pairs in the documented order. Which pair is faster
// is a measurement, not a unit-test fact.
func TestMichaelComparisonShape(t *testing.T) {
	rows, err := bench.MichaelComparison(bench.ThroughputConfig{
		Threads: 2, OpsPerThread: 4000, KeyRange: 256, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i, want := range [][2]string{{"ebr", "harris"}, {"hp", "michael"}, {"ebr", "michael"}} {
		if rows[i].Scheme != want[0] || rows[i].Structure != want[1] {
			t.Fatalf("row %d = %s × %s, want %s × %s", i, rows[i].Scheme, rows[i].Structure, want[0], want[1])
		}
		if rows[i].Mix != bench.MixUpdateOnly || rows[i].MopsPerSec <= 0 {
			t.Errorf("row %d: mix %s, %.3f Mops/s", i, rows[i].Mix, rows[i].MopsPerSec)
		}
	}
}

// TestThroughputSweep covers the sweep driver and the applicability
// filter (hp must be skipped on harris).
func TestThroughputSweep(t *testing.T) {
	rows, err := bench.ThroughputSweep("harris", all.SafeNames(), []bench.Mix{bench.MixReadHeavy},
		[]int{2}, bench.ThroughputConfig{OpsPerThread: 1500, KeyRange: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scheme == "hp" || r.Scheme == "ibr" || r.Scheme == "he" {
			t.Errorf("non-applicable scheme %s ran on harris", r.Scheme)
		}
	}
	if len(rows) == 0 {
		t.Fatal("sweep produced no rows")
	}
	var sb strings.Builder
	bench.ThroughputResult{Rows: rows}.WriteTable(&sb)
	if !strings.Contains(sb.String(), "Mops/s") {
		t.Error("table rendering lost header")
	}
}

// TestScaleSweepShape is the Definition 5.1 vs 5.2 separation: a robust
// scheme's stalled-reader backlog must be independent of the structure
// size; a weakly robust scheme's is linear in it.
func TestScaleSweepShape(t *testing.T) {
	rows, err := bench.ScaleSweep([]string{"hp", "he", "ibr", "vbr", "nbr"}, []int{128, 1024})
	if err != nil {
		t.Fatal(err)
	}
	backlog := map[string]map[int]uint64{}
	for _, r := range rows {
		if backlog[r.Scheme] == nil {
			backlog[r.Scheme] = map[int]uint64{}
		}
		backlog[r.Scheme][r.Size] = r.Backlog
	}
	// Robust: flat in size.
	for _, s := range []string{"hp", "vbr", "nbr"} {
		if b := backlog[s]; b[1024] > b[128]+32 {
			t.Errorf("%s: backlog grew with size (%d -> %d) — not o(max_active)", s, b[128], b[1024])
		}
	}
	// Weakly robust: linear in size (the stalled era/interval pins the
	// whole structure alive at the stall).
	for _, s := range []string{"he", "ibr"} {
		b := backlog[s]
		if b[128] < 100 || b[1024] < 900 {
			t.Errorf("%s: backlog %v does not track structure size — expected weak robustness", s, b)
		}
	}
	var sb strings.Builder
	rows.WriteTable(&sb)
	if !strings.Contains(sb.String(), "per-size") {
		t.Error("table rendering lost header")
	}
}
