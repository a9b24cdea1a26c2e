package main

import (
	"reflect"
	"testing"
)

// BENCHMARK.json is the contract the driver reads; the tables in this
// package are what the program prints. They must name the same things.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var e2e, layer []metricDef
	sawSetup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !sawSetup {
		t.Error("end_to_end must carry setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, e2eDefs) {
		t.Errorf("end_to_end differs:\n json    %v\n program %v", e2e, e2eDefs)
	}
	if !reflect.DeepEqual(layer, layerDefs) {
		t.Errorf("per_layer differs:\n json    %v\n program %v", layer, layerDefs)
	}
}

func TestStreamsComeFromTheSeedAlone(t *testing.T) {
	for i := range specs {
		if specs[i].requests < 1024 {
			t.Errorf("%s: %d distinct requests, want at least 1024", specs[i].name, specs[i].requests)
		}
		sp := short(&specs[i])
		gen := func(seed uint64) ([]request, []request) {
			reqs, err := sp.genRequests(seed)
			if err != nil {
				t.Fatal(err)
			}
			batches, err := sp.genPrefill(seed)
			if err != nil {
				t.Fatal(err)
			}
			return reqs, batches
		}
		a, pa := gen(7)
		b, pb := gen(7)
		c, _ := gen(8)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(pa, pb) {
			t.Errorf("%s: same seed, different inputs", sp.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same stream", sp.name)
		}
		keys := 0
		for _, batch := range pa {
			keys += len(batch.ops)
		}
		if keys != sp.keyRange/2 {
			t.Errorf("%s: prefill has %d keys, want half of %d", sp.name, keys, sp.keyRange)
		}
	}
}

func TestQualifiedNames(t *testing.T) {
	if got := qualified("ds.op_ns", "batch-read"); got != "ds.batch-read.op_ns" {
		t.Errorf("qualified = %q", got)
	}
	if perWorkload("smr.hp.bracket_ns") || perWorkload("store.handoff_us") || perWorkload("ds.contend.trav_restarts_per_kop") {
		t.Error("unit costs must not be per-workload")
	}
	if !perWorkload("smr.readptr_per_op") || !perWorkload("store.self_us") {
		t.Error("ladder metrics must be per-workload")
	}
}
