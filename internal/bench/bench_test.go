package bench_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ds/registry"
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
