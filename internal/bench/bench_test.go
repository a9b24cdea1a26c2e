package bench_test

import (
	"fmt"
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

// TestSpaceSweepShape checks EXP-ERA's audited-R column separates the
// robustness classes by the stalled reader's backlog growth: one retired
// node per churn step (two operations) for EBR and the leaky baseline,
// none for VBR.
func TestSpaceSweepShape(t *testing.T) {
	rows := eraRows(t)
	for _, s := range []string{"ebr", "none"} {
		if r := rows[s]; r.audited != "not-robust" || r.slope < 0.4 {
			t.Errorf("%s: audited %q, slope %.3f per op — want not-robust near 0.5 (unbounded backlog)", s, r.audited, r.slope)
		}
	}
	if r := rows["vbr"]; r.audited != "robust" || r.slope > 0.05 {
		t.Errorf("vbr: audited %q, slope %.3f per op — want robust near 0", r.audited, r.slope)
	}
}

// TestStallSeriesShape: in EXP-EXT's stalled traversals the backlog grows
// with the churn for EBR and stays flat for VBR, on every structure.
func TestStallSeriesShape(t *testing.T) {
	const k = 1000
	stalls := stallRows(t, k)
	for _, structure := range []string{"harris", "nmtree", "skiplist"} {
		ebr, vbr := stalls[structure+"/ebr"], stalls[structure+"/vbr"]
		if ebr.audited != "not-robust" || ebr.final < k-64 {
			t.Errorf("%s: ebr backlog %s, final %d after %d churn steps — should track the churn", structure, ebr.audited, ebr.final, k)
		}
		if vbr.audited != "robust" || vbr.peak > 32 {
			t.Errorf("%s: vbr backlog %s, peak %d — should stay flat", structure, vbr.audited, vbr.peak)
		}
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

// TestScaleSweepShape is the Definition 5.1 vs 5.2 separation at EXP-ERA's
// 128-key prefix: a robust scheme's stalled-reader backlog stays a few
// nodes, a weakly robust one's plateaus at the structure size (the
// stalled era/interval pins the whole structure alive at the stall).
func TestScaleSweepShape(t *testing.T) {
	rows := eraRows(t)
	for _, s := range []string{"hp", "vbr", "nbr"} {
		if r := rows[s]; r.audited != "robust" || r.plateau > 32 {
			t.Errorf("%s: audited %q, plateau %.0f — want robust, independent of the structure size", s, r.audited, r.plateau)
		}
	}
	for _, s := range []string{"he", "ibr"} {
		if r := rows[s]; r.audited != "weakly-robust" || r.plateau < 100 {
			t.Errorf("%s: audited %q, plateau %.0f — want weakly-robust, tracking the structure size", s, r.audited, r.plateau)
		}
	}
}

// runTable runs the named experiment's short profile with churn k (0 for
// the profile's own) and returns its rendered table.
func runTable(t *testing.T, name string, k int) string {
	t.Helper()
	e, err := bench.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(bench.Profile{Short: true, Seed: 42, K: k})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	return sb.String()
}

// eraRow is one scheme's robustness evidence as EXP-ERA prints it.
type eraRow struct {
	audited        string
	slope, plateau float64
}

// eraRows parses EXP-ERA's audited-R column and its slope/plateau
// evidence per scheme.
func eraRows(t *testing.T) map[string]eraRow {
	t.Helper()
	rows := map[string]eraRow{}
	for _, line := range strings.Split(runTable(t, "matrix", 0), "\n") {
		f := strings.Fields(line)
		if len(f) < 8 || !strings.HasPrefix(f[6], "slope=") {
			continue
		}
		r := eraRow{audited: f[3]}
		if _, err := fmt.Sscanf(f[6]+" "+f[7], "slope=%g plateau=%g", &r.slope, &r.plateau); err != nil {
			t.Fatalf("evidence %q: %v", line, err)
		}
		rows[f[0]] = r
	}
	if len(rows) != len(all.SafeNames()) {
		t.Fatalf("matrix table has %d scheme rows, want %d", len(rows), len(all.SafeNames()))
	}
	return rows
}

// stallRow is one stalled traversal's backlog as EXP-EXT prints it.
type stallRow struct {
	audited     string
	peak, final int
}

// stallRows parses EXP-EXT's outcomes at churn k, keyed "structure/scheme".
func stallRows(t *testing.T, k int) map[string]stallRow {
	t.Helper()
	rows := map[string]stallRow{}
	structure := ""
	for _, line := range strings.Split(runTable(t, "structures", k), "\n") {
		if _, err := fmt.Sscanf(line, "-- %s --", &structure); err == nil {
			continue
		}
		scheme, rest, ok := strings.Cut(line, " ")
		_, backlog, found := strings.Cut(rest, "backlog ")
		if !ok || !found {
			continue
		}
		var r stallRow
		if _, err := fmt.Sscanf(backlog, "%s (peak %d, final %d,", &r.audited, &r.peak, &r.final); err != nil {
			t.Fatalf("outcome %q: %v", line, err)
		}
		rows[structure+"/"+scheme] = r
	}
	return rows
}
