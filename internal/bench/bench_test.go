package bench_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ds/registry"
	"repro/internal/smr/all"
	"repro/internal/workload"
)

// TestThroughputRuns smoke-tests one cell per scheme family, at the
// profile's default workload names.
func TestThroughputRuns(t *testing.T) {
	for _, scheme := range []string{"ebr", "hp", "vbr", "none"} {
		r, err := bench.RunCell(bench.ThroughputCell{Scheme: scheme, Structure: "michael", Mix: workload.MixBalanced, Threads: 2},
			bench.Profile{Ops: 3000, KeyRange: 128, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r.Ops != 6000 || r.Symptom == "" && r.MopsPerSec <= 0 {
			t.Errorf("%s: row = %+v", scheme, r)
		}
		if r.Workload != "uniform" || r.Schedule != "steady" {
			t.Errorf("%s: defaults %s/%s", scheme, r.Workload, r.Schedule)
		}
	}
}

// TestThroughputRejectsNonSets: the runner only accepts set structures.
func TestThroughputRejectsNonSets(t *testing.T) {
	for _, structure := range []string{"msqueue", "nosuch"} {
		if _, err := bench.RunCell(bench.ThroughputCell{Scheme: "ebr", Structure: structure, Threads: 2}, bench.Profile{}); err == nil {
			t.Errorf("%s: expected an error", structure)
		}
	}
}

// TestThroughputWorkloadMatrix drives one cell through every registered
// key distribution × op-mix schedule.
func TestThroughputWorkloadMatrix(t *testing.T) {
	for _, dist := range workload.DistNames() {
		for _, sched := range workload.ScheduleNames() {
			r, err := bench.RunCell(bench.ThroughputCell{Scheme: "ebr", Structure: "michael", Mix: workload.MixBalanced, Threads: 2},
				bench.Profile{Ops: 1500, KeyRange: 128, Workload: dist, Schedule: sched, Seed: 11})
			if err != nil {
				t.Fatalf("%s/%s: %v", dist, sched, err)
			}
			if r.Workload != dist || r.Schedule != sched {
				t.Errorf("row names %s/%s, want %s/%s", r.Workload, r.Schedule, dist, sched)
			}
			if r.MopsPerSec <= 0 || r.Ops != 3000 {
				t.Errorf("%s/%s: row = %+v", dist, sched, r)
			}
		}
	}
}

// TestThroughputRejectsUnknownWorkload: bad registry names surface as
// errors, not silent fallbacks — also on a known-red cell.
func TestThroughputRejectsUnknownWorkload(t *testing.T) {
	for _, scheme := range []string{"ebr", "pebr"} {
		c := bench.ThroughputCell{Scheme: scheme, Structure: "michael", Threads: 2}
		if _, err := bench.RunCell(c, bench.Profile{Workload: "nosuch"}); err == nil {
			t.Errorf("%s: unknown distribution must error", scheme)
		}
		if _, err := bench.RunCell(c, bench.Profile{Schedule: "nosuch"}); err == nil {
			t.Errorf("%s: unknown schedule must error", scheme)
		}
	}
}

// TestRunCellKnownRed: a cell that fails every time — the unsafe
// immediate-free scheme under real parallelism — yields a row carrying
// its symptom and script while registry.KnownRed lists it, and an error
// carrying the script while it does not.
func TestRunCellKnownRed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c := bench.ThroughputCell{Scheme: "unsafefree", Structure: "harris", Mix: workload.MixUpdateOnly, Threads: 4}
	p := bench.Profile{Ops: 40000, KeyRange: 8, Seed: 3}
	_, err := bench.RunCell(c, p)
	if err == nil || !strings.Contains(err.Error(), "unsafefree × harris") || !strings.Contains(err.Error(), "drive.Script{Threads: 4") {
		t.Fatalf("unlisted failing cell: err = %v, want the failure and its script", err)
	}
	saved := registry.KnownRed
	t.Cleanup(func() { registry.KnownRed = saved })
	registry.KnownRed = append(saved[:len(saved):len(saved)], registry.Red{Scheme: "unsafefree", Structure: "harris", Symptom: "frees on retire"})
	r, err := bench.RunCell(c, p)
	if err != nil {
		t.Fatalf("listed failing cell returned an error: %v", err)
	}
	if !strings.Contains(r.Symptom, "frees on retire") || !strings.HasPrefix(r.Script, "drive.Script{Threads: 4") {
		t.Fatalf("listed failing cell: symptom %q, script %q", r.Symptom, r.Script)
	}
	var sb strings.Builder
	bench.ThroughputResult{Rows: []bench.ThroughputRow{r}}.WriteTable(&sb)
	if !strings.Contains(sb.String(), r.Script) {
		t.Errorf("table lost the failing cell's script:\n%s", sb.String())
	}
}

// TestERASlopeSeparatesNotRobust checks EXP-ERA's audited-R column
// separates the robustness classes by the stalled reader's backlog slope:
// one retired node per churn step (two operations) for EBR and the leaky
// baseline, none for VBR.
func TestERASlopeSeparatesNotRobust(t *testing.T) {
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

// TestSweepEndsWithSectionSixCells: the sweep ends with the Section 6
// comparison's three cells, in the documented order, and each runs.
// Which pair is faster is a measurement, not a unit-test fact.
func TestSweepEndsWithSectionSixCells(t *testing.T) {
	cells := bench.ThroughputCells("skiplist")
	cells = cells[len(cells)-3:]
	for i, want := range [][2]string{{"ebr", "harris"}, {"hp", "michael"}, {"ebr", "michael"}} {
		c := cells[i]
		if c.Scheme != want[0] || c.Structure != want[1] || c.Mix != workload.MixUpdateOnly || c.Threads != 2 {
			t.Fatalf("cell %d = %+v, want %s × %s update-only at 2 threads", i, c, want[0], want[1])
		}
		r, err := bench.RunCell(c, bench.Profile{Ops: 4000, KeyRange: 256, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if r.MopsPerSec <= 0 {
			t.Errorf("cell %d: %.3f Mops/s", i, r.MopsPerSec)
		}
	}
}

// TestThroughputSweep covers the cell list's applicability filter (hp,
// ibr and he must not run on harris) and renders a slice of the sweep.
func TestThroughputSweep(t *testing.T) {
	var rows []bench.ThroughputRow
	cells := bench.ThroughputCells("harris")
	for _, c := range cells[:len(cells)-3] {
		if c.Scheme == "hp" || c.Scheme == "ibr" || c.Scheme == "he" {
			t.Errorf("non-applicable scheme %s runs on harris", c.Scheme)
		}
		if c.Mix != workload.MixReadHeavy || c.Threads != 2 {
			continue
		}
		r, err := bench.RunCell(c, bench.Profile{Ops: 1500, KeyRange: 128, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
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

// TestERAPlateauSeparatesWeaklyRobust is the Definition 5.1 vs 5.2
// separation at EXP-ERA's 128-key prefix: a robust scheme's stalled-reader
// backlog plateaus at a few nodes, a weakly robust one's at the structure
// size (the stalled era/interval pins the whole structure alive at the
// stall).
func TestERAPlateauSeparatesWeaklyRobust(t *testing.T) {
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
