// Command erachaos runs the chaos-injection robustness audit: a sharded
// store with one shard per scheme, closed-loop client traffic, scheduled
// fault injection, and a live telemetry audit of each scheme's declared
// robustness class (Definitions 5.1–5.2) against the backlog growth its
// faulted telemetry actually shows.
//
//	erachaos                                  # stall audit: ebr, ibr, hp
//	erachaos -schemes ebr,qsbr,he,hp,vbr      # wider sweep
//	erachaos -faults stall,delayed-release    # compound adversity
//	erachaos -duration 2s -strict             # longer run; exit 1 on violation
//	erachaos -duration 5s -obs :8080          # live /metrics + /timeline + pprof
//
// The default run injects a reclamation-critical stall into every shard
// an eighth of the way into the traffic window and holds it to the end:
// the paper predicts — and the verdict table shows — the EBR shard's
// backlog growing without bound while the HP shard's stays flat.
//
// The audit is written as a machine-readable artifact (BENCH_chaos.json
// by default; -json "" disables), verdict series included, so runs form
// a trajectory tooling can diff and plot.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/ds/registry"
	"repro/internal/smr/all"
	"repro/internal/workload"
)

func main() {
	schemes := flag.String("schemes", "ebr,ibr,hp",
		fmt.Sprintf("comma-separated schemes, one shard each %v", all.SafeNames()))
	faults := flag.String("faults", "stall",
		fmt.Sprintf("comma-separated faults injected into every shard %v", chaos.Names()))
	dsName := flag.String("ds", "hashmap", "set structure per shard (ds/registry name)")
	workers := flag.Int("workers", 0, "workers per shard (0 = one survivor above the stall-family fault count)")
	clients := flag.Int("clients", 0, "closed-loop client goroutines (0 = 2×shards)")
	batch := flag.Int("batch", 16, "operations per service request")
	keyRange := flag.Int("keyrange", 2048, "key universe size")
	duration := flag.Duration("duration", 400*time.Millisecond, "traffic window")
	wl := flag.String("workload", "uniform",
		fmt.Sprintf("key distribution %v", workload.DistNames()))
	mix := flag.String("mix", "steady",
		fmt.Sprintf("op-mix schedule %v", workload.ScheduleNames()))
	opmix := flag.String("opmix", "50/25/25", "base contains/insert/delete percentages")
	seed := flag.Uint64("seed", 42, "workload seed: equal seeds draw identical client streams")
	obsAddr := flag.String("obs", "",
		"serve the live observability plane (/metrics, /timeline, /debug/pprof/) on this address during the run, e.g. :8080")
	jsonPath := flag.String("json", "BENCH_chaos.json", "chaos artifact path (empty disables)")
	strict := flag.Bool("strict", false, "exit 1 when any audited verdict violates its declared class")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "erachaos: %v\n", err)
		os.Exit(2)
	}
	// Validate every selection up front: a typo'd scheme or fault name
	// must not surface after the prefill, and an unwritable artifact path
	// not after the run.
	schemeList := strings.Split(*schemes, ",")
	for _, s := range schemeList {
		if _, err := all.Props(s); err != nil {
			fail(err)
		}
	}
	info, err := registry.Get(*dsName)
	if err != nil {
		fail(err)
	}
	for _, s := range schemeList {
		if !registry.Applicable(s, info.Name) {
			fail(fmt.Errorf("scheme %s is not applicable to %s (Appendix E)", s, info.Name))
		}
	}
	faultList := strings.Split(*faults, ",")
	for _, f := range faultList {
		if _, err := chaos.New(f, chaos.Params{}); err != nil {
			fail(err)
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
	var jsonFile *os.File
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fail(err)
		}
		jsonFile = f
	}

	fmt.Printf("erachaos: %d shards (%s) × %s, faults %v, %s window, workload %s/%s\n",
		len(schemeList), strings.Join(schemeList, ","), info.Name, faultList, *duration, *wl, *mix)
	if *obsAddr != "" {
		fmt.Printf("erachaos: observability plane will serve on %s (/metrics, /timeline, /debug/pprof/)\n", *obsAddr)
	}
	res, err := bench.RunChaos(bench.ChaosConfig{
		Schemes:         schemeList,
		Structure:       *dsName,
		WorkersPerShard: *workers,
		Clients:         *clients,
		Batch:           *batch,
		KeyRange:        *keyRange,
		Duration:        *duration,
		Faults:          faultList,
		Mix:             baseMix,
		Workload:        *wl,
		Schedule:        *mix,
		Seed:            *seed,
		ObsAddr:         *obsAddr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "erachaos: %v\n", err)
		os.Exit(1)
	}
	res.WriteTable(os.Stdout)
	if res.ObsURL != "" {
		fmt.Printf("observability plane served at %s\n", res.ObsURL)
	}
	if jsonFile != nil {
		if err := bench.WriteArtifactFile(jsonFile, "chaos", res); err != nil {
			fmt.Fprintf(os.Stderr, "erachaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *strict {
		if err := bench.Check(res); err != nil {
			fmt.Fprintf(os.Stderr, "erachaos: %v\n", err)
			os.Exit(1)
		}
	}
}
