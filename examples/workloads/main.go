// Workloads: the throughput cell runner in one page. A scenario is two
// registry names — a key distribution and an op-mix schedule — so sweeping
// scenarios is a loop over strings, not new harness code. Each row is one
// EXP-THRU cell (bench.RunCell) on the seeded driver, internal/ds/drive.
// The run prints the human table and writes the same rows as a
// machine-readable JSON benchmark artifact with throughput, retired
// backlog and restarts.
//
//	go run ./examples/workloads [-out BENCH_workloads.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/workload"
)

func main() {
	out := flag.String("out", "BENCH_workloads.json", "benchmark artifact path ('' disables)")
	flag.Parse()

	fmt.Println("Every key distribution × schedule on Michael's list, EBR vs VBR:")
	fmt.Println()

	var rows []bench.ThroughputRow
	for _, dist := range workload.DistNames() {
		for _, sched := range workload.ScheduleNames() {
			for _, scheme := range []string{"ebr", "vbr"} {
				row, err := bench.RunCell(
					bench.ThroughputCell{Scheme: scheme, Structure: "michael", Mix: workload.MixBalanced, Threads: 2},
					bench.Profile{Ops: 8000, KeyRange: 512, Workload: dist, Schedule: sched, Seed: 42})
				if err != nil {
					log.Fatal(err)
				}
				rows = append(rows, row)
			}
		}
	}
	res := bench.ThroughputResult{Rows: rows}
	res.WriteTable(os.Stdout)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := bench.WriteArtifactFile(f, "workloads", res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d rows to %s\n", len(rows), *out)
	}

	fmt.Println()
	fmt.Println("Reading the table: zipfian/hotset concentrate traffic on few keys, so")
	fmt.Println("contention (and VBR's rollback restarts) rises; shifting churns the")
	fmt.Println("working set, so every scheme pays cold-traversal costs; the oversub")
	fmt.Println("schedule yields the processor mid-quantum, which grows the retired backlog")
	fmt.Println("of epoch-based schemes whose reclamation waits on every thread's progress.")
}
