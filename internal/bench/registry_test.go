package bench_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// wantGates is the gate list each experiment declares, in the order Check
// evaluates them. Experiments absent from the map declare none. The obs
// experiment's third gate is the recorder-overhead budget its old
// CheckObs enforced; the others are the booleans CI has always asserted.
var wantGates = map[string][]string{
	"chaos":    {"consistent", "partial_chains_closed"},
	"adaptive": {"improved"},
	"obs":      {"complete", "detection_latency_ns", "overhead_ok"},
	"resil":    {"goodput_recovered", "hedge_bounds_tail", "amplification_bounded"},
}

// nestedGates are computed over nested fields (per-incident latencies,
// overhead.ok); every other gate is also a top-level boolean of the
// artifact under the same name.
var nestedGates = map[string]bool{"detection_latency_ns": true, "overhead_ok": true}

// wantTable is one header token each experiment's table must carry.
var wantTable = map[string]string{
	"throughput": "Mops/s",
	"chaos":      "partial-failure campaign", "adaptive": "faulted-audited", "obs": "recorder:",
	"resil": "retry:",
}

// TestRegistry pins the registry's shape: names unique, resolvable, and
// listed — in run order — by the unknown-name error.
func TestRegistry(t *testing.T) {
	names := bench.Names()
	want := []string{"throughput", "chaos", "adaptive", "obs", "resil"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registry order:\n got %v\nwant %v", names, want)
	}
	seen := map[string]bool{}
	for _, e := range bench.Experiments() {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registry entry", e.Name)
		}
		got, err := bench.Lookup(e.Name)
		if err != nil || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, err)
		}
	}
	_, err := bench.Lookup("nosuch")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-name error does not list %q: %v", n, err)
		}
	}
}

// artifact encodes res through the one writer and decodes it generically.
func artifact(t *testing.T, name string, res bench.Result) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := bench.WriteArtifact(&buf, name, res); err != nil {
		t.Fatalf("%s: WriteArtifact: %v", name, err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("%s: artifact is not JSON: %v\n%s", name, err, buf.String())
	}
	return doc
}

// checkArtifact asserts the shared artifact schema: the experiment name,
// a gates object holding exactly the declared gates, and each non-nested
// gate mirrored as a top-level boolean field of the same name.
func checkArtifact(t *testing.T, name string, res bench.Result) {
	t.Helper()
	doc := artifact(t, name, res)
	if doc["experiment"] != name {
		t.Errorf("%s: experiment = %v", name, doc["experiment"])
	}
	gates, ok := doc["gates"].(map[string]any)
	if !ok {
		t.Fatalf("%s: no gates object: %v", name, doc["gates"])
	}
	if len(gates) != len(wantGates[name]) {
		t.Errorf("%s: gates object %v, want %v", name, gates, wantGates[name])
	}
	for _, g := range res.Gates() {
		if gates[g.Name] != g.OK {
			t.Errorf("%s: gates[%s] = %v, want %v", name, g.Name, gates[g.Name], g.OK)
		}
		if !nestedGates[g.Name] && doc[g.Name] != g.OK {
			t.Errorf("%s: top-level %q = %v, want %v", name, g.Name, doc[g.Name], g.OK)
		}
	}
}

func gateNames(res bench.Result) []string {
	var names []string
	for _, g := range res.Gates() {
		names = append(names, g.Name)
	}
	return names
}

// TestExperimentsShortProfile runs every experiment's short profile once
// and asserts structure only: the run completes, the table carries its
// header, the declared gates are present, and the artifact decodes. What
// the gates *say* is wall-clock dependent and belongs to `erabench
// -check`, not to a unit test.
func TestExperimentsShortProfile(t *testing.T) {
	for _, e := range bench.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(bench.Profile{Short: true, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			var tbl strings.Builder
			res.WriteTable(&tbl)
			if !strings.Contains(tbl.String(), wantTable[e.Name]) {
				t.Errorf("table missing %q:\n%s", wantTable[e.Name], tbl.String())
			}
			if got := gateNames(res); !reflect.DeepEqual(got, wantGates[e.Name]) {
				t.Errorf("gates %v, want %v", got, wantGates[e.Name])
			}
			checkArtifact(t, e.Name, res)
			checkStructure(t, res)
		})
	}
}

// checkStructure asserts each measured result's arms and rows exist.
func checkStructure(t *testing.T, res bench.Result) {
	t.Helper()
	switch r := res.(type) {
	case bench.ThroughputResult:
		if len(r.Rows) == 0 {
			t.Error("no throughput rows")
		}
	case bench.ChaosResult:
		a := r.Aggregate
		if len(r.Rows) != a.Shards || len(r.Events) != a.Shards*len(a.Faults) || a.Ops == 0 {
			t.Errorf("chaos audit: %d rows and %d fault events for %d shards × %v, %d ops",
				len(r.Rows), len(r.Events), a.Shards, a.Faults, a.Ops)
		}
		c := r.Campaign.Aggregate
		if len(r.Campaign.Events) != 1 || r.Campaign.Events[0].Shard != 1 || c.FanoutReqs == 0 || c.PointClients != 0 {
			t.Errorf("chaos campaign: events %+v, %d lane requests, %d point-op clients", r.Campaign.Events, c.FanoutReqs, c.PointClients)
		}
	case bench.AdaptiveResult:
		for _, arm := range []bench.ServiceResult{r.Static, r.Adaptive} {
			if len(arm.Rows) != 1 || arm.Aggregate.Ops == 0 || len(arm.Events) == 0 || len(arm.Rows[0].Series) == 0 {
				t.Errorf("adaptive arm: %d rows, %d ops, %d fault events", len(arm.Rows), arm.Aggregate.Ops, len(arm.Events))
			}
		}
		if r.Static.Rows[0].Verdict == "" || r.Adaptive.Rows[0].Verdict == "" {
			t.Errorf("adaptive: no final verdict: %q / %q", r.Static.Rows[0].Verdict, r.Adaptive.Rows[0].Verdict)
		}
	case bench.ObsResult:
		// How many incidents reach the tape depends on what the recorder
		// dropped; the complete gate holds that claim under -check.
		if len(r.Run.Tape) == 0 || len(r.Run.Rows) == 0 || len(r.Run.Rows[0].Series) == 0 {
			t.Errorf("obs: %d tape events, %d rows", len(r.Run.Tape), len(r.Run.Rows))
		}
		if r.Overhead.Rounds == 0 || r.Overhead.RecorderOnMops <= 0 || r.Overhead.RecorderOffMops <= 0 {
			t.Errorf("obs overhead A/B did not run: %+v", r.Overhead)
		}
		arts := r.Artifacts()
		if len(arts) != 1 || arts[0].Suffix != "trace" {
			t.Fatalf("obs artifacts: %+v", arts)
		}
		var trace bytes.Buffer
		if err := arts[0].Write(&trace); err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(trace.Bytes(), &tf); err != nil || len(tf.TraceEvents) == 0 {
			t.Errorf("chrome trace: %d events, %v", len(tf.TraceEvents), err)
		}
	case bench.ResilResult:
		for _, arm := range []bench.ServiceResult{r.Naive, r.Resilient, r.Unhedged, r.Hedged} {
			if a := arm.Aggregate; a.FanoutReqs == 0 || a.PointClients != 0 || len(arm.Events) == 0 {
				t.Errorf("resil: arm with %d lane requests, %d point-op clients, %d fault events",
					a.FanoutReqs, a.PointClients, len(arm.Events))
			}
		}
		if r.Naive.Aggregate.FanoutWindowReqs == 0 || r.Resilient.Aggregate.FanoutWindowReqs == 0 {
			t.Error("resil: no goodput request was submitted inside a fault window")
		}
	}
}

// passing returns, per gated experiment, a synthetic result whose gates
// all hold.
func passing() map[string]bench.Result {
	return map[string]bench.Result{
		"chaos": bench.ChaosResult{
			ServiceResult: bench.ServiceResult{
				Rows:       []bench.ServiceShardRow{{Scheme: "ebr", Consistent: true}, {Scheme: "hp", Consistent: true}},
				Consistent: true,
			},
			PartialChainsClosed: true,
		},
		"adaptive": sampleAdaptive(),
		"obs": bench.ObsResult{
			Run:      bench.ServiceResult{Aggregate: bench.ServiceRow{Shards: 1}},
			Timeline: obs.Timeline{Incidents: []obs.Incident{{Fault: "delayed-release", DetectionLatency: time.Millisecond, Complete: true}}},
			Complete: true,
			Overhead: bench.ObsOverhead{Rounds: 3, OK: true},
		},
		"resil": bench.ResilResult{GoodputRecovered: true, HedgeBoundsTail: true, AmplificationBounded: true},
	}
}

// failing returns a copy of the passing result with exactly gate broken.
func failing(t *testing.T, name, gate string) bench.Result {
	t.Helper()
	switch r := passing()[name].(type) {
	case bench.ChaosResult:
		if gate == "consistent" {
			r.Rows[1].Consistent, r.Consistent = false, false
		} else {
			r.PartialChainsClosed = false
		}
		return r
	case bench.AdaptiveResult:
		r.Improved = false
		return r
	case bench.ObsResult:
		switch gate {
		case "complete":
			r.Complete, r.Timeline.Incidents[0].Complete = false, false
		case "detection_latency_ns":
			r.Timeline.Incidents[0].DetectionLatency = -1
		default:
			r.Overhead.OK = false
		}
		return r
	case bench.ResilResult:
		switch gate {
		case "goodput_recovered":
			r.GoodputRecovered = false
		case "hedge_bounds_tail":
			r.HedgeBoundsTail = false
		default:
			r.AmplificationBounded = false
		}
		return r
	}
	t.Fatalf("no synthetic result for %s", name)
	return nil
}

// TestCheckGates is the gate logic on synthetic results: Check passes
// when every gate holds, and for each gate of each experiment, breaking
// that one claim makes Check fail naming it and its detail — which is what `erabench
// -check` and `eraserve -strict` turn into the exit status. The artifact
// carries the same booleans.
func TestCheckGates(t *testing.T) {
	for name, gates := range wantGates {
		good := passing()[name]
		if got := gateNames(good); !reflect.DeepEqual(got, gates) {
			t.Fatalf("%s: gates %v, want %v", name, got, gates)
		}
		if err := bench.Check(good); err != nil {
			t.Errorf("%s: Check on a passing result: %v", name, err)
		}
		checkArtifact(t, name, good)
		for _, gate := range gates {
			bad := failing(t, name, gate)
			err := bench.Check(bad)
			if err == nil || !strings.Contains(err.Error(), "gate "+gate+" failed") {
				t.Errorf("%s: Check with %s broken = %v, want an error naming the gate", name, gate, err)
			}
			for _, g := range bad.Gates() {
				if g.Name == gate && (g.OK || g.Detail == "") {
					t.Errorf("%s: broken gate %s reads %+v, want it down with the measurement that broke it", name, gate, g)
				}
			}
			checkArtifact(t, name, bad)
		}
	}
	// With several gates down, the error names the first in declaration
	// order.
	err := bench.Check(bench.ResilResult{})
	if err == nil || !strings.Contains(err.Error(), "gate goodput_recovered failed") {
		t.Errorf("Check with every resil gate broken = %v, want the first gate", err)
	}
}

// TestArtifactKeepsRows: the typed rows survive the generic writer
// unchanged, snake_case tags and all.
func TestArtifactKeepsRows(t *testing.T) {
	rows := sampleRows()
	var buf bytes.Buffer
	if err := bench.WriteArtifact(&buf, "throughput", bench.ThroughputResult{Rows: rows}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiment": "throughput"`, `"gates": {}`, `"workload": "zipfian"`, `"peak_retired"`, `"script"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("artifact missing %s:\n%s", want, buf.String())
		}
	}
	var back bench.ThroughputResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Rows, rows) {
		t.Errorf("rows changed across the artifact:\n got %+v\nwant %+v", back.Rows, rows)
	}
	svc := sampleService()
	buf.Reset()
	if err := bench.WriteArtifact(&buf, "service", svc); err != nil {
		t.Fatal(err)
	}
	var svcBack bench.ServiceResult
	if err := json.Unmarshal(buf.Bytes(), &svcBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(svcBack, svc) {
		t.Errorf("service result changed across the artifact:\n got %+v\nwant %+v", svcBack, svc)
	}
}
