// Command eraserve drives the sharded multi-tenant store with a
// closed-loop client fleet and reports service-level results: per-shard
// throughput and backlog, aggregate rate, and request p50/p99.
//
//	eraserve -shards 8 -scheme hp -ds hashmap -workload zipfian
//	eraserve -shards 4 -scheme hp,ebr -clients 16 -batch 32
//	eraserve -shards 4 -duration 2s            # duration-boxed window
//	eraserve -shards 4 -scheme ebr -adapt      # adaptive reclamation live
//	eraserve -duration 10s -adapt -obs :8080   # live /metrics + /timeline + pprof
//	eraserve -shards 4 -fanout 25              # 25% of fleet on cross-shard fan-out
//	eraserve -fanout 25 -retry -hedge -breaker # resilient fan-out lane
//
// -scheme takes a comma-separated list cycled across shards, so
// heterogeneous deployments (the ERA trade-off made per shard: robust HP
// where the backlog bound matters, cheap EBR elsewhere) are one flag
// away. -duration switches from op-boxed to a wall-clock window (the
// long-lived demo shape); -adapt additionally runs the adaptive
// reclamation controller over the store, escalating/de-escalating each
// shard along -ladder as its live robustness verdicts demand. -fanout
// dedicates a share of the fleet to cross-shard multi-key and range
// requests served by the pipelined scatter-gather executor
// (internal/exec); their latency reports as separate p50/p99 rows
// beside the point-op request percentiles. -retry, -hedge and -breaker
// (each requiring -fanout) route that lane through the resilience
// client (internal/resil) — typed-error-aware retries, p99-delay
// hedged legs, and per-shard circuit breakers — whose counters land in
// the service table and, with -obs, on /metrics as era_resil_*. -obs
// serves the observability plane for the duration of the run: Prometheus
// text on /metrics, the flight-recorder event stream on /timeline, and
// live profiling under /debug/pprof/. The measurement is written as a
// machine-readable artifact (BENCH_service.json by default; -json ""
// disables).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/bench"
	"repro/internal/ds/registry"
	"repro/internal/smr/all"
	"repro/internal/workload"
)

func main() {
	shards := flag.Int("shards", 8, "shard count")
	scheme := flag.String("scheme", "ebr",
		fmt.Sprintf("comma-separated reclamation schemes, cycled across shards %v", all.SafeNames()))
	dsName := flag.String("ds", "hashmap", "set structure per shard (ds/registry name)")
	workers := flag.Int("workers", 1, "worker goroutines per shard")
	clients := flag.Int("clients", 0, "closed-loop client goroutines (0 = 2×shards)")
	ops := flag.Int("ops", 20000, "measured operations per client (op-boxed mode)")
	batch := flag.Int("batch", 16, "operations per service request (>= 2 engages the fused shard hot path)")
	nofuse := flag.Bool("nofuse", false,
		"serve every op under its own SMR bracket instead of fusing batches (the A/B baseline for -batch sweeps)")
	keyRange := flag.Int("keyrange", 8192, "key universe size")
	duration := flag.Duration("duration", 0,
		"duration-boxed traffic window (0 = op-boxed via -ops; -adapt defaults this to 2s)")
	adaptOn := flag.Bool("adapt", false, "run the adaptive-reclamation controller over the store")
	ladder := flag.String("ladder", "ebr,ibr,hp",
		"adaptive migration ladder, cheapest first (with -adapt)")
	wl := flag.String("workload", "zipfian",
		fmt.Sprintf("key distribution %v", workload.DistNames()))
	mix := flag.String("mix", "steady",
		fmt.Sprintf("op-mix schedule %v", workload.ScheduleNames()))
	opmix := flag.String("opmix", "50/25/25", "base contains/insert/delete percentages")
	seed := flag.Uint64("seed", 42, "workload seed")
	fanout := flag.Int("fanout", 0,
		"dedicate this percentage of the client fleet (min one goroutine) to cross-shard fan-out traffic through the pipelined executor (0 disables)")
	fanoutKeys := flag.Int("fanout-keys", 8, "keys per multi-key fan-out request (with -fanout)")
	retry := flag.Bool("retry", false,
		"route the fan-out lane through the resilience client with typed-error retries (with -fanout)")
	hedge := flag.Bool("hedge", false,
		"hedge slow fan-out legs at the tracked p99 delay (with -fanout)")
	breaker := flag.Bool("breaker", false,
		"run per-shard circuit breakers over the fan-out lane (with -fanout)")
	fanoutSLO := flag.Duration("fanout-slo", 0,
		"per-shard p99 objective over the resilient fan-out lane's leg latencies; with -adapt, breaches feed the verdict plane's SLO dimension (needs -duration and one of -retry/-hedge/-breaker)")
	obsAddr := flag.String("obs", "",
		"serve the live observability plane (/metrics, /timeline, /debug/pprof/) on this address during the run, e.g. :8080")
	jsonPath := flag.String("json", "BENCH_service.json", "service artifact path (empty disables)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "eraserve: %v\n", err)
		os.Exit(2)
	}
	// Validate selections up front: a typo must not surface after a long
	// prefill, and an unwritable artifact path not after the run.
	schemes := strings.Split(*scheme, ",")
	for _, s := range schemes {
		if _, err := all.Props(s); err != nil {
			fail(err)
		}
	}
	info, err := registry.Get(*dsName)
	if err != nil {
		fail(err)
	}
	for _, s := range schemes {
		if !registry.Applicable(s, info.Name) {
			fail(fmt.Errorf("scheme %s is not applicable to %s (Appendix E)", s, info.Name))
		}
	}
	if _, err := workload.NewDist(*wl, 2); err != nil {
		fail(err)
	}
	if _, err := workload.NewSchedule(*mix, workload.MixBalanced); err != nil {
		fail(err)
	}
	baseMix, err := workload.ParseMix(*opmix)
	if err != nil {
		fail(err)
	}
	// -adapt implies a duration window (the controller needs a deadline
	// to live inside) and validates its ladder up front.
	var adaptCfg *adapt.Config
	if *adaptOn {
		if *duration <= 0 {
			*duration = 2 * time.Second
		}
		rungs := strings.Split(*ladder, ",")
		for _, r := range rungs {
			if _, err := all.Props(r); err != nil {
				fail(err)
			}
			if !registry.Applicable(r, info.Name) {
				fail(fmt.Errorf("ladder rung %s is not applicable to %s (Appendix E)", r, info.Name))
			}
		}
		adaptCfg = &adapt.Config{Ladder: rungs}
	}
	var jsonFile *os.File
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fail(err)
		}
		jsonFile = f
	}

	cfg := bench.ServiceConfig{
		Shards:          *shards,
		Schemes:         schemes,
		Structure:       *dsName,
		WorkersPerShard: *workers,
		Clients:         *clients,
		OpsPerClient:    *ops,
		Batch:           *batch,
		NoFuse:          *nofuse,
		KeyRange:        *keyRange,
		Mix:             baseMix,
		Workload:        *wl,
		Schedule:        *mix,
		Seed:            *seed,
		Duration:        *duration,
		Adapt:           adaptCfg,
		FanoutPct:       *fanout,
		FanoutKeys:      *fanoutKeys,
		Retry:           *retry,
		Hedge:           *hedge,
		Breaker:         *breaker,
		FanoutSLO:       *fanoutSLO,
		ObsAddr:         *obsAddr,
	}
	if (*retry || *hedge || *breaker) && *fanout <= 0 {
		fail(fmt.Errorf("-retry/-hedge/-breaker shape the fan-out lane; set -fanout > 0"))
	}
	if *fanoutSLO > 0 && (*duration <= 0 || !(*retry || *hedge || *breaker)) {
		fail(fmt.Errorf("-fanout-slo needs -duration and a resilient lane (-retry/-hedge/-breaker)"))
	}
	if *obsAddr != "" {
		fmt.Printf("eraserve: observability plane will serve on %s (/metrics, /timeline, /debug/pprof/)\n", *obsAddr)
	}
	mode := fmt.Sprintf("%d ops/client", *ops)
	if *duration > 0 {
		mode = fmt.Sprintf("%s window", *duration)
		if adaptCfg != nil {
			mode += fmt.Sprintf(", adaptive ladder %s", *ladder)
		}
	}
	fmt.Printf("eraserve: %d shards (%s) × %s, workload %s/%s, %s\n",
		*shards, strings.Join(schemes, ","), info.Name, *wl, *mix, mode)
	res, err := bench.RunService(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eraserve: %v\n", err)
		os.Exit(1)
	}
	res.WriteTable(os.Stdout)
	if res.ObsURL != "" {
		fmt.Printf("observability plane served at %s\n", res.ObsURL)
	}
	if jsonFile != nil {
		if err := bench.WriteArtifactFile(jsonFile, "service", res); err != nil {
			fmt.Fprintf(os.Stderr, "eraserve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
