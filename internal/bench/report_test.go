package bench_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/workload"
)

func sampleRows() []bench.ThroughputRow {
	return []bench.ThroughputRow{
		{
			Scheme: "ebr", Structure: "harris", Threads: 4,
			Mix: workload.MixReadHeavy, Workload: "zipfian", Schedule: "phased",
			KeyRange: 1024, Ops: 80000, Elapsed: 125 * time.Millisecond,
			MopsPerSec: 0.64, PeakRetired: 96, Restarts: 0,
		},
		{
			Scheme: "vbr", Structure: "skiplist", Threads: 2,
			Mix: workload.MixUpdateOnly, Workload: "uniform", Schedule: "steady",
			KeyRange: 512, Ops: 40000, Elapsed: 90 * time.Millisecond,
			MopsPerSec: 0.44, PeakRetired: 31, Restarts: 17,
		},
		{
			Scheme: "pebr", Structure: "harris", Threads: 2,
			Mix: workload.MixBalanced, Workload: "uniform", Schedule: "oversub",
			KeyRange: 256, Ops: 4000, Elapsed: 3 * time.Millisecond,
			Symptom: "known red (post-swap CAS undo, since 2026-10-16): T1 round 0 op 17: corrupted",
			Script:  "drive.Script{Threads: 2, Ops: 2000, KeyRange: 256, Schedule: \"oversub\", Seed: 42}",
		},
	}
}

// TestThroughputTable checks the rendered table carries every row's
// load-bearing fields, and a failed known-red cell its symptom and script
// on the lines below its row.
func TestThroughputTable(t *testing.T) {
	var sb strings.Builder
	rows := sampleRows()
	bench.ThroughputResult{Rows: rows}.WriteTable(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("want header + 3 rows + the red row's 2 lines, got %d lines:\n%s", len(lines), out)
	}
	for _, want := range []string{"scheme", "Mops/s", "peak-retired", "ebr", "harris", "90/5/5",
		"zipfian/phased", "0.640", "vbr", "skiplist"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(lines[4], rows[2].Symptom) || !strings.Contains(lines[5], rows[2].Script) {
		t.Errorf("red row's symptom and script not below it:\n%s", out)
	}
}

func sampleService() bench.ServiceResult {
	return bench.ServiceResult{
		Rows: []bench.ServiceShardRow{
			{Shard: 0, Scheme: "hp", Ops: 41000, MopsPerSec: 0.195, PeakRetired: 16,
				Declared: "robust", Audited: "robust", Growth: "bounded", Outcome: "confirmed", Consistent: true},
			{Shard: 1, Scheme: "ebr", Ops: 39000, MopsPerSec: 0.185, PeakRetired: 48, Restarts: 3,
				Declared: "not-robust", Audited: "not-robust", Growth: "unbounded", Slope: 0.25,
				Outcome: "confirmed", Consistent: true},
		},
		Events: []chaos.Event{{Fault: "stall", Shard: 1, Episode: 1, At: 26 * time.Millisecond, Healed: 210 * time.Millisecond}},
		Aggregate: bench.ServiceRow{
			Shards: 2, Schemes: []string{"hp", "ebr"}, Structure: "hashmap", Faults: bench.FaultsInEveryShard(210*time.Millisecond, "stall"),
			Clients: 4, Batch: 16, Workers: 2, Mix: workload.MixBalanced,
			Workload: "zipfian", Schedule: "steady", KeyRange: 4096,
			Ops: 80000, Elapsed: 210 * time.Millisecond, MopsPerSec: 0.38,
			P50: 95 * time.Microsecond, P99: 480 * time.Microsecond, PeakRetired: 64,
		},
		Consistent: true,
	}
}

// TestServiceTable checks the per-shard rows, the fault log and the
// aggregate lines all render.
func TestServiceTable(t *testing.T) {
	var sb strings.Builder
	sampleService().WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"shard", "hp", "ebr", "not-robust", "unbounded", "confirmed",
		"fault: stall", "healed at 210ms", "aggregate:", "2 shards", "4 clients", "zipfian/steady",
		"p50 95µs", "p99 480µs", "peak-retired 64", "verdicts consistent: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("service table missing %q:\n%s", want, out)
		}
	}
}

func sampleAdaptive() bench.AdaptiveResult {
	arm := func(ops uint64, row bench.ServiceShardRow) bench.ServiceResult {
		return bench.ServiceResult{
			Rows: []bench.ServiceShardRow{row},
			Aggregate: bench.ServiceRow{
				Shards: 1, Schemes: []string{"ebr"}, Structure: "hashmap",
				Faults:  []bench.Fault{{Name: "delayed-release", Schedule: chaos.OneShot(100 * time.Millisecond)}},
				Workers: 2, Clients: 4, Batch: 16, KeyRange: 2048, Elapsed: 800 * time.Millisecond,
				Mix: workload.MixBalanced, Workload: "uniform", Schedule: "steady", Seed: 42, Ops: ops,
			},
			Consistent: true,
		}
	}
	static := arm(120000, bench.ServiceShardRow{
		Scheme: "ebr", Audited: "not-robust", Growth: "unbounded",
		Verdict: "not-robust", VerdictGrowth: "unbounded", PeakRetired: 48211,
	})
	adaptive := arm(310000, bench.ServiceShardRow{
		Scheme: "ebr", Audited: "not-robust", Growth: "unbounded",
		Verdict: "robust", VerdictGrowth: "bounded", PeakRetired: 910, Migrations: 1, Epoch: 1,
	})
	adaptive.Episodes = []adapt.Episode{{
		Shard: 0, From: "ebr", To: "ibr", At: 190 * time.Millisecond,
		Audited: "not-robust", Reason: "escalate: audited not-robust over 2 windows",
	}}
	adaptive.Aggregate.OpErrs, adaptive.Aggregate.P99 = 4200, 55*time.Microsecond
	return bench.AdaptiveResult{Static: static, Adaptive: adaptive, Improved: true}
}

// TestAdaptiveTable checks both arms, the migration log, and the
// headline all render.
func TestAdaptiveTable(t *testing.T) {
	var sb strings.Builder
	sampleAdaptive().WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"arm", "static", "adaptive", "ebr", "ibr",
		"not-robust (unbounded)", "robust (bounded)",
		"migration: shard 0 ebr → ibr at 190ms", "improved on static: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("adaptive table missing %q:\n%s", want, out)
		}
	}
}
