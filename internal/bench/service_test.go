package bench_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/obs/rec"
	"repro/internal/workload"
)

// TestRunServiceHeterogeneous runs a small healthy deployment with HP
// and EBR alternating across shards and checks the measurement
// accounting: every client op is counted exactly once, rates and
// latencies are populated, no fault was injected, and no shard observed
// a safety event.
func TestRunServiceHeterogeneous(t *testing.T) {
	res, err := bench.RunService(bench.ServiceConfig{
		Shards:    4,
		Schemes:   []string{"hp", "ebr"},
		Structure: "hashmap",
		Clients:   4,
		Batch:     8,
		KeyRange:  512,
		Workload:  "zipfian",
		Duration:  100 * time.Millisecond,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a.Ops == 0 || a.MopsPerSec <= 0 || a.Elapsed <= 0 {
		t.Fatalf("rate: %d ops, %v Mops/s over %v", a.Ops, a.MopsPerSec, a.Elapsed)
	}
	if a.P50 == 0 || a.P99 == 0 || a.P99 < a.P50 {
		t.Fatalf("latency: p50=%v p99=%v", a.P50, a.P99)
	}
	if len(res.Rows) != 4 || len(res.Events) != 0 {
		t.Fatalf("%d shard rows, %d fault events; want 4, 0", len(res.Rows), len(res.Events))
	}
	var shardOps uint64
	for i, r := range res.Rows {
		want := []string{"hp", "ebr"}[i%2]
		if r.Scheme != want {
			t.Fatalf("shard %d scheme %s, want %s", i, r.Scheme, want)
		}
		if r.Faults != 0 || r.UnsafeAccesses != 0 {
			t.Fatalf("shard %d: faults=%d unsafe=%d", i, r.Faults, r.UnsafeAccesses)
		}
		shardOps += r.Ops
	}
	if shardOps != a.Ops {
		t.Fatalf("shard ops sum %d != aggregate %d", shardOps, a.Ops)
	}
}

// TestRunServiceMixReachesClients runs the same deployment under the
// default write mix and under a read-only one: the write mix must leave
// a retired backlog on some shard, the read-only mix none on any.
func TestRunServiceMixReachesClients(t *testing.T) {
	for _, tc := range []struct {
		mix      workload.Mix
		retiring bool
	}{
		{workload.Mix{}, true},
		{workload.Mix{ContainsPct: 100}, false},
	} {
		res, err := bench.RunService(bench.ServiceConfig{
			Shards:   2,
			Schemes:  []string{"hp", "ebr"},
			Clients:  2,
			KeyRange: 512,
			Mix:      tc.mix,
			Duration: 50 * time.Millisecond,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var peak uint64
		for _, r := range res.Rows {
			peak = max(peak, r.PeakRetired)
		}
		if (peak > 0) != tc.retiring {
			t.Fatalf("mix %+v: peak retired %d, want retiring=%v", tc.mix, peak, tc.retiring)
		}
	}
}

// TestRunServiceFanoutLane runs a deployment with a fan-out lane beside
// the point-op clients: the lane's clients come out of Clients, its
// requests (through the resilience client with no policy set) must be
// counted into their own histogram (separate p50/p99) and be clean on a
// healthy store (no partials, no errors), and the table must carry the
// lane's row.
func TestRunServiceFanoutLane(t *testing.T) {
	res, err := bench.RunService(bench.ServiceConfig{
		Shards:    4,
		Schemes:   []string{"ebr"},
		Structure: "michael", // ordered: range legs exercise the iterator
		Clients:   4,
		Batch:     8,
		KeyRange:  512,
		Duration:  100 * time.Millisecond,
		FanoutPct: 50,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a.Ops == 0 {
		t.Fatal("point-op clients made no progress")
	}
	if a.FanoutClients != 2 || a.PointClients != 2 || a.PointClients+a.FanoutClients != a.Clients {
		t.Fatalf("%d fan-out + %d point-op clients ran, want 2 + 2 (50%% of %d each)", a.FanoutClients, a.PointClients, a.Clients)
	}
	if a.FanoutReqs == 0 {
		t.Fatal("fan-out lane served no requests")
	}
	if a.FanoutP50 == 0 || a.FanoutP99 < a.FanoutP50 {
		t.Fatalf("fan-out latency: p50=%v p99=%v", a.FanoutP50, a.FanoutP99)
	}
	if a.FanoutClean != a.FanoutReqs || a.FanoutPartial != 0 || a.FanoutErrs != 0 || a.FanoutRetries != 0 || a.FanoutHedges != 0 {
		t.Fatalf("healthy single-attempt fan-out lane: partial=%d errs=%d retries=%d hedges=%d",
			a.FanoutPartial, a.FanoutErrs, a.FanoutRetries, a.FanoutHedges)
	}

	var buf strings.Builder
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "fan-out:") {
		t.Fatalf("service table missing fan-out row:\n%s", buf.String())
	}
}

// TestRunServiceFaultTargets: a fault entry aimed at one shard, with a
// hold shorter than the window, fires there only and heals on its own
// schedule, before the deadline's stop would have healed it; a recorded
// run without a live plane carries that fire and heal on its tape.
func TestRunServiceFaultTargets(t *testing.T) {
	const after, hold, window = 20 * time.Millisecond, 40 * time.Millisecond, 200 * time.Millisecond
	res, err := bench.RunService(bench.ServiceConfig{
		Shards: 3, Schemes: []string{"ebr"}, Clients: 3, Batch: 8, KeyRange: 512, Duration: window,
		Faults: []bench.Fault{{Name: "stall", Shards: []int{1},
			Schedule: chaos.Schedule{After: after, Hold: hold, Episodes: 1}}},
		Record: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 {
		t.Fatalf("fault events %+v, want one on shard 1", res.Events)
	}
	ev := res.Events[0]
	if ev.Shard != 1 || ev.Err != "" || ev.Healed == 0 || ev.Healed-ev.At >= window-after-hold {
		t.Fatalf("fault event %+v: want shard 1, fired, healed about %v after firing (the stop heals at %v)",
			ev, hold, window-after)
	}
	if len(res.Tape) == 0 || res.ObsURL != "" {
		t.Fatalf("recorded run without a plane: %d tape events, plane %q", len(res.Tape), res.ObsURL)
	}
	seen := map[rec.Kind]int{}
	for _, e := range res.Tape {
		if e.Kind == rec.KindFaultFire || e.Kind == rec.KindFaultHeal {
			if e.Shard != 1 || e.Label != "stall" {
				t.Errorf("fault event on the tape off target: %+v", e)
			}
			seen[e.Kind]++
		}
	}
	if seen[rec.KindFaultFire] != 1 || seen[rec.KindFaultHeal] != 1 {
		t.Errorf("tape holds %d fires and %d heals, want one of each", seen[rec.KindFaultFire], seen[rec.KindFaultHeal])
	}
}

// TestRunServiceRejectsBadScheme checks bad selections surface before
// anything runs, each naming its registry: an unknown scheme, a scheme
// the structure cannot host, an unknown fault, a fault aimed past the
// last shard, and lane policies without a lane.
func TestRunServiceRejectsBadScheme(t *testing.T) {
	for _, tc := range []struct {
		cfg  bench.ServiceConfig
		want string
	}{
		{bench.ServiceConfig{Schemes: []string{"nope"}}, "nope"},
		{bench.ServiceConfig{Schemes: []string{"hp"}, Structure: "harris"}, "Appendix E"},
		{bench.ServiceConfig{Faults: []bench.Fault{{Name: "nosuch"}}}, "stall"},
		{bench.ServiceConfig{Faults: []bench.Fault{{Name: "stall", Shards: []int{3}}}}, "shard 3"},
		{bench.ServiceConfig{Retry: true}, "fan-out"},
	} {
		if _, err := bench.RunService(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunService(%+v) = %v, want an error mentioning %q", tc.cfg, err, tc.want)
		}
	}
}

// TestRunServiceDurationBoxed checks the window: clients run until the
// deadline, the elapsed time tracks it, a healthy static run absorbs no
// op errors and swaps no shard, and the accounting stays coherent.
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
	for _, r := range res.Rows {
		shardOps += r.Ops
		if r.Migrations != 0 || r.Epoch != 0 {
			t.Fatalf("static duration run migrated: %+v", r)
		}
	}
	if shardOps != a.Ops {
		t.Fatalf("shard ops sum %d != aggregate %d", shardOps, a.Ops)
	}
}

// TestRunServiceAdaptiveHealthy runs the adaptive controller over
// healthy traffic: it must hold position (no pressure, no migrations)
// while the run completes and reports normally.
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
	for _, r := range res.Rows {
		if r.Migrations != 0 || r.Epoch != 0 {
			t.Fatalf("healthy shard moved off ebr: %+v", r)
		}
	}
}
