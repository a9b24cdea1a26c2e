package bench_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// TestThroughputWorkloadMatrix drives the engine through every registered
// key distribution × op-mix schedule on one (scheme, structure) pair.
func TestThroughputWorkloadMatrix(t *testing.T) {
	for _, dist := range workload.DistNames() {
		for _, sched := range workload.ScheduleNames() {
			r, err := bench.Throughput("ebr", "michael", bench.ThroughputConfig{
				Threads: 2, OpsPerThread: 1500, KeyRange: 128, Mix: bench.MixBalanced,
				Workload: dist, Schedule: sched, Seed: 11,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", dist, sched, err)
			}
			if r.Workload != dist || r.Schedule != sched {
				t.Errorf("row names %s/%s, want %s/%s", r.Workload, r.Schedule, dist, sched)
			}
			if r.MopsPerSec <= 0 || r.Ops != 3000 {
				t.Errorf("%s/%s: row = %+v", dist, sched, r)
			}
			if r.P50 <= 0 || r.P99 < r.P50 {
				t.Errorf("%s/%s: latency percentiles p50=%v p99=%v", dist, sched, r.P50, r.P99)
			}
		}
	}
}

// TestThroughputRejectsUnknownWorkload: bad registry names surface as
// errors, not silent fallbacks.
func TestThroughputRejectsUnknownWorkload(t *testing.T) {
	if _, err := bench.Throughput("ebr", "michael", bench.ThroughputConfig{Workload: "nosuch"}); err == nil {
		t.Error("unknown distribution must error")
	}
	if _, err := bench.Throughput("ebr", "michael", bench.ThroughputConfig{Schedule: "nosuch"}); err == nil {
		t.Error("unknown schedule must error")
	}
}

// TestThroughputLatencyPercentilesOrdered: percentile columns behave on the
// classic path too (uniform/steady via the legacy config shape).
func TestThroughputLatencyPercentilesOrdered(t *testing.T) {
	r, err := bench.Throughput("hp", "michael", bench.ThroughputConfig{
		Threads: 2, OpsPerThread: 2000, KeyRange: 256, Mix: bench.MixReadHeavy, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "uniform" || r.Schedule != "steady" {
		t.Errorf("defaults: %s/%s", r.Workload, r.Schedule)
	}
	if !(r.P50 > 0 && r.P50 <= r.P99) {
		t.Errorf("percentiles p50=%v p99=%v", r.P50, r.P99)
	}
	var sb strings.Builder
	bench.ThroughputResult{Rows: []bench.ThroughputRow{r}}.WriteTable(&sb)
	if !strings.Contains(sb.String(), "p99") || !strings.Contains(sb.String(), "uniform/steady") {
		t.Errorf("table rendering lost workload/latency columns:\n%s", sb.String())
	}
}
