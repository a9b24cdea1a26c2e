package bench_test

import (
	"strings"
	"time"

	"repro/internal/adapt"
	"testing"

	"repro/internal/bench"
)

// TestRunServiceHeterogeneous runs a small sharded-service experiment
// with HP and EBR alternating across shards and checks the measurement
// accounting: every client op is counted exactly once, rates and
// latencies are populated, and no shard observed a safety event.
func TestRunServiceHeterogeneous(t *testing.T) {
	res, err := bench.RunService(bench.ServiceConfig{
		Shards:       4,
		Schemes:      []string{"hp", "ebr"},
		Structure:    "hashmap",
		Clients:      4,
		OpsPerClient: 800,
		Batch:        8,
		KeyRange:     512,
		Workload:     "zipfian",
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a.Ops != 4*800 {
		t.Fatalf("ops: %d", a.Ops)
	}
	if a.MopsPerSec <= 0 || a.Elapsed <= 0 {
		t.Fatalf("rate: %v over %v", a.MopsPerSec, a.Elapsed)
	}
	if a.P50 == 0 || a.P99 == 0 || a.P99 < a.P50 {
		t.Fatalf("latency: p50=%v p99=%v", a.P50, a.P99)
	}
	if len(res.PerShard) != 4 {
		t.Fatalf("per-shard rows: %d", len(res.PerShard))
	}
	var shardOps uint64
	for i, r := range res.PerShard {
		want := []string{"hp", "ebr"}[i%2]
		if r.Scheme != want {
			t.Fatalf("shard %d scheme %s, want %s", i, r.Scheme, want)
		}
		if r.Faults != 0 || r.UnsafeAccesses != 0 {
			t.Fatalf("shard %d: faults=%d unsafe=%d", i, r.Faults, r.UnsafeAccesses)
		}
		shardOps += r.Ops
	}
	if shardOps != uint64(a.Ops) {
		t.Fatalf("shard ops sum %d != aggregate %d", shardOps, a.Ops)
	}
}

// TestRunServiceFanoutLane runs the service experiment with a fan-out
// lane beside the point-op fleet: the executor-served requests must be
// counted into their own histogram (separate p50/p99), the lane must be
// clean on a healthy store (no partials, no op errors), and the
// point-op accounting must stay exactly as it is without the lane.
func TestRunServiceFanoutLane(t *testing.T) {
	res, err := bench.RunService(bench.ServiceConfig{
		Shards:       4,
		Schemes:      []string{"ebr"},
		Structure:    "michael", // ordered: range legs exercise the iterator
		Clients:      4,
		OpsPerClient: 600,
		Batch:        8,
		KeyRange:     512,
		FanoutPct:    50,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a.Ops != 4*600 {
		t.Fatalf("point ops: %d", a.Ops)
	}
	if a.FanoutClients != 2 {
		t.Fatalf("fan-out clients: %d, want 2 (50%% of 4)", a.FanoutClients)
	}
	if a.FanoutReqs == 0 {
		t.Fatal("fan-out lane served no requests")
	}
	if a.FanoutP50 == 0 || a.FanoutP99 < a.FanoutP50 {
		t.Fatalf("fan-out latency: p50=%v p99=%v", a.FanoutP50, a.FanoutP99)
	}
	if a.FanoutPartial != 0 || a.FanoutErrs != 0 {
		t.Fatalf("healthy fan-out lane: partial=%d errs=%d", a.FanoutPartial, a.FanoutErrs)
	}

	var buf strings.Builder
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "fan-out:") {
		t.Fatalf("service table missing fan-out row:\n%s", buf.String())
	}
}

// TestRunServiceRejectsBadScheme checks constructor errors surface.
func TestRunServiceRejectsBadScheme(t *testing.T) {
	if _, err := bench.RunService(bench.ServiceConfig{Schemes: []string{"nope"}}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestRunServiceDurationBoxed checks the -duration mode: clients run
// until the deadline (no warmup, op errors tolerated), the elapsed time
// tracks the window, and accounting stays coherent.
func TestRunServiceDurationBoxed(t *testing.T) {
	if testing.Short() {
		t.Skip("duration-boxed run needs a real traffic window")
	}
	res, err := bench.RunService(bench.ServiceConfig{
		Shards:    2,
		Schemes:   []string{"ebr"},
		Structure: "michael",
		Clients:   2,
		Batch:     8,
		KeyRange:  256,
		Duration:  120 * time.Millisecond,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a.Ops == 0 {
		t.Fatal("duration-boxed run made no progress")
	}
	if a.Elapsed < 120*time.Millisecond {
		t.Fatalf("elapsed %v shorter than the window", a.Elapsed)
	}
	if a.OpErrs != 0 {
		t.Fatalf("healthy duration run produced %d op errors", a.OpErrs)
	}
	var shardOps uint64
	for _, r := range res.PerShard {
		shardOps += r.Ops
		if r.Migrations != 0 || r.Epoch != 0 {
			t.Fatalf("static duration run migrated: %+v", r)
		}
	}
	if shardOps != uint64(a.Ops) {
		t.Fatalf("shard ops sum %d != aggregate %d", shardOps, a.Ops)
	}
}

// TestRunServiceAdaptRequiresDuration checks the guard: the adaptive
// controller needs a deadline to live inside.
func TestRunServiceAdaptRequiresDuration(t *testing.T) {
	_, err := bench.RunService(bench.ServiceConfig{Adapt: &adapt.Config{}})
	if err == nil {
		t.Fatal("op-boxed adaptive run accepted")
	}
}

// TestRunServiceAdaptiveHealthy runs the adaptive service mode over
// healthy traffic: the controller must hold position (no pressure, no
// migrations) while the run completes and reports normally.
func TestRunServiceAdaptiveHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("duration-boxed run needs a real traffic window")
	}
	res, err := bench.RunService(bench.ServiceConfig{
		Shards:    2,
		Schemes:   []string{"ebr"},
		Structure: "hashmap",
		Clients:   2,
		Batch:     8,
		KeyRange:  256,
		Duration:  150 * time.Millisecond,
		Adapt:     &adapt.Config{Interval: 10 * time.Millisecond},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Ops == 0 {
		t.Fatal("adaptive service run made no progress")
	}
	if len(res.Episodes) != 0 || res.Aggregate.Migrations != 0 {
		t.Fatalf("healthy traffic triggered migrations: %+v", res.Episodes)
	}
	for _, r := range res.PerShard {
		if r.Scheme != "ebr" {
			t.Fatalf("healthy shard moved off ebr: %+v", r)
		}
	}
}
