// Command eraserve runs a deployment of the sharded multi-tenant store:
// reclamation schemes cycled across shards, a closed-loop client fleet
// for a wall-clock window, optional fault injection, and a live audit of
// each shard's declared robustness class (Definitions 5.1–5.2) against
// the backlog growth its telemetry shows. It reports per-shard
// throughput, backlog, safety counters and verdicts, the fault and
// migration logs, and request p50/p99.
//
//	eraserve                                   # healthy ebr/ibr/hp, one shard each
//	eraserve -shards 8 -scheme hp,ebr -workload zipfian -clients 16 -batch 32
//	eraserve -faults stall -strict             # stall audit; exit 1 on a violation
//	eraserve -faults stall,delayed-release -scheme ebr,qsbr,he,hp,vbr
//	eraserve -scheme ebr -adapt                # adaptive reclamation live
//	eraserve -duration 10s -adapt -obs :8080   # live /metrics + /timeline + pprof
//	eraserve -fanout 25 -retry -hedge -breaker # resilient cross-shard fan-out lane
//
// -scheme takes a comma-separated list cycled across -shards (default:
// one shard per scheme), so heterogeneous deployments — the ERA
// trade-off made per shard: robust HP where the backlog bound matters,
// cheap EBR elsewhere — are one flag away. -faults injects the named
// chaos faults into every shard an eighth of the way into the window and
// holds them to its end (bench.FaultsInEveryShard — the same entries
// EXP-CHAOS's audit injects);
// the stall audit shows the EBR shard's backlog growing without bound
// while the HP shard's stays flat. -adapt runs the adaptive reclamation
// controller over the store, escalating/de-escalating each shard along
// -ladder as its live robustness verdicts demand. -fanout gives that
// percentage of the -clients to cross-shard multi-key and range requests
// served through the resilience client (internal/resil) over the
// pipelined executor (internal/exec) — the rest stay point-op clients,
// and -fanout 100 runs the lane alone; after a faulted run the lane sends
// one full-width request that must come back clean. -retry, -hedge and
// -breaker switch on its typed-error-aware retries, p99-delay hedged legs
// and per-shard circuit breakers. -obs serves the observability plane for the run: Prometheus
// text on /metrics, the flight-recorder tape on /timeline, and live
// profiling under /debug/pprof/. The run is written as a machine-readable
// artifact (BENCH_service.json by default; -json "" disables), verdict
// series included; -strict exits 1 when any audit contradicts its
// scheme's declared class.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/smr/all"
	"repro/internal/workload"
)

func main() {
	shards := flag.Int("shards", 0, "shard count (0 = one per scheme)")
	scheme := flag.String("scheme", "ebr,ibr,hp",
		fmt.Sprintf("comma-separated reclamation schemes, cycled across shards %v", all.SafeNames()))
	dsName := flag.String("ds", "hashmap", "set structure per shard (ds/registry name)")
	workers := flag.Int("workers", 0, "worker goroutines per shard (0 = one survivor above the stall-family fault count)")
	clients := flag.Int("clients", 0, "client goroutines, the fan-out lane's share included (0 = 2×shards)")
	batch := flag.Int("batch", 16, "operations per service request (>= 2 engages the fused shard hot path)")
	keyRange := flag.Int("keyrange", 8192, "key universe size")
	duration := flag.Duration("duration", 2*time.Second, "traffic window")
	faults := flag.String("faults", "",
		fmt.Sprintf("comma-separated faults injected into every shard %v (empty = healthy)", chaos.Names()))
	adaptOn := flag.Bool("adapt", false, "run the adaptive-reclamation controller over the store")
	ladder := flag.String("ladder", "ebr,ibr,hp", "adaptive migration ladder, cheapest first (with -adapt)")
	wl := flag.String("workload", "zipfian", fmt.Sprintf("key distribution %v", workload.DistNames()))
	mix := flag.String("mix", "steady", fmt.Sprintf("op-mix schedule %v", workload.ScheduleNames()))
	opmix := flag.String("opmix", "50/25/25", "base contains/insert/delete percentages")
	seed := flag.Uint64("seed", 42, "workload seed: equal seeds draw identical client streams")
	fanout := flag.Int("fanout", 0,
		"dedicate this percentage of the client fleet (min one client) to cross-shard fan-out traffic (0 disables, 100 runs the lane alone)")
	fanoutKeys := flag.Int("fanout-keys", 8, "keys per multi-key fan-out request (with -fanout)")
	retry := flag.Bool("retry", false, "retry failed fan-out legs on typed errors (with -fanout)")
	hedge := flag.Bool("hedge", false, "hedge slow read-only fan-out legs at the tracked p99 delay (with -fanout)")
	breaker := flag.Bool("breaker", false, "run per-shard circuit breakers over the fan-out lane (with -fanout)")
	fanoutSLO := flag.Duration("fanout-slo", 0,
		"per-shard p99 objective over the fan-out lane's leg latencies; with -adapt, breaches feed the verdict plane's SLO dimension (with -fanout)")
	obsAddr := flag.String("obs", "",
		"serve the live observability plane (/metrics, /timeline, /debug/pprof/) on this address during the run, e.g. :8080")
	jsonPath := flag.String("json", "BENCH_service.json", "artifact path (empty disables)")
	strict := flag.Bool("strict", false, "exit 1 when any audited verdict violates its declared class")
	flag.Parse()

	fail := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "eraserve: %v\n", err)
		os.Exit(code)
	}
	list := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}
	baseMix, err := workload.ParseMix(*opmix)
	if err != nil {
		fail(2, err)
	}
	cfg := bench.ServiceConfig{
		Shards:          *shards,
		Schemes:         list(*scheme),
		Structure:       *dsName,
		WorkersPerShard: *workers,
		Clients:         *clients,
		Batch:           *batch,
		KeyRange:        *keyRange,
		Duration:        *duration,
		Faults:          bench.FaultsInEveryShard(*duration, list(*faults)...),
		Mix:             baseMix,
		Workload:        *wl,
		Schedule:        *mix,
		Seed:            *seed,
		FanoutPct:       *fanout,
		FanoutKeys:      *fanoutKeys,
		Retry:           *retry,
		Hedge:           *hedge,
		Breaker:         *breaker,
		FanoutSLO:       *fanoutSLO,
		ObsAddr:         *obsAddr,
	}
	if *adaptOn {
		cfg.Adapt = &adapt.Config{Ladder: list(*ladder)}
	}
	// Validate up front: a typo must not surface after the prefill, and
	// an unwritable artifact path not after the run.
	if err := cfg.Validate(); err != nil {
		fail(2, err)
	}
	var jsonFile *os.File
	if *jsonPath != "" {
		if jsonFile, err = os.Create(*jsonPath); err != nil {
			fail(2, err)
		}
	}

	fmt.Printf("eraserve: schemes %s × %s, faults %v, %s window, workload %s/%s\n",
		*scheme, *dsName, list(*faults), *duration, *wl, *mix)
	if *obsAddr != "" {
		fmt.Printf("eraserve: observability plane will serve on %s (/metrics, /timeline, /debug/pprof/)\n", *obsAddr)
	}
	res, err := bench.RunService(cfg)
	if err != nil {
		fail(1, err)
	}
	res.WriteTable(os.Stdout)
	if res.ObsURL != "" {
		fmt.Printf("observability plane served at %s\n", res.ObsURL)
	}
	if jsonFile != nil {
		if err := bench.WriteArtifactFile(jsonFile, "service", res); err != nil {
			fail(1, err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *strict {
		if err := bench.Check(res); err != nil {
			fail(1, err)
		}
	}
}
