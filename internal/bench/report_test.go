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
			MopsPerSec: 0.64, P50: 310 * time.Nanosecond, P99: 2150 * time.Nanosecond,
			PeakRetired: 96, Restarts: 0,
		},
		{
			Scheme: "vbr", Structure: "skiplist", Threads: 2,
			Mix: workload.MixUpdateOnly, Workload: "uniform", Schedule: "steady",
			KeyRange: 512, Ops: 40000, Elapsed: 90 * time.Millisecond,
			MopsPerSec: 0.44, PeakRetired: 31, Restarts: 17,
		},
	}
}

// TestThroughputTable checks the rendered table carries every row's
// load-bearing fields, and that unmeasured latencies render as "-" rather
// than a misleading zero.
func TestThroughputTable(t *testing.T) {
	var sb strings.Builder
	bench.ThroughputResult{Rows: sampleRows()}.WriteTable(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	for _, want := range []string{"scheme", "Mops/s", "peak-retired", "ebr", "harris", "90/5/5",
		"zipfian/phased", "0.640", "310ns", "vbr", "skiplist"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// The second row recorded no latency samples; its percentile cells
	// must show the placeholder.
	if !strings.Contains(lines[2], " - ") {
		t.Errorf("unmeasured latency not rendered as '-': %s", lines[2])
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
			Shards: 2, Schemes: []string{"hp", "ebr"}, Structure: "hashmap", Faults: []string{"stall"},
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
	return bench.AdaptiveResult{
		Static: bench.AdaptiveArm{
			Arm: "static", StartScheme: "ebr", FinalScheme: "ebr",
			FaultedAudited: "not-robust", FaultedGrowth: "unbounded",
			FinalAudited: "not-robust", FinalGrowth: "unbounded",
			Migrations: []adapt.Episode{}, PeakRetired: 48211, Ops: 120000,
		},
		Adaptive: bench.AdaptiveArm{
			Arm: "adaptive", StartScheme: "ebr", FinalScheme: "ibr",
			FaultedAudited: "not-robust", FaultedGrowth: "unbounded",
			FinalAudited: "robust", FinalGrowth: "bounded",
			Migrations: []adapt.Episode{{
				Shard: 0, From: "ebr", To: "ibr", At: 190 * time.Millisecond,
				Audited: "not-robust", Reason: "escalate: audited not-robust over 2 windows",
			}},
			PeakRetired: 910, Ops: 310000, OpErrs: 4200,
			P99: 55 * time.Microsecond,
		},
		Agg: bench.AdaptiveAggregate{
			Ladder: []string{"ebr", "ibr", "hp"}, StartScheme: "ebr",
			Structure: "hashmap", Faults: []string{"delayed-release"},
			Workers: 2, Clients: 4, Batch: 16, KeyRange: 2048,
			Duration: 800 * time.Millisecond, Mix: workload.MixBalanced,
			Workload: "uniform", Schedule: "steady", Seed: 42,
		},
		Improved: true,
	}
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
