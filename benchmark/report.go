package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test holds the two together) and fixes
// the end-to-end bounds.
type metricDef struct {
	name   string
	unit   string
	better string
}

// e2eDefs are the end-to-end metrics, per workload. failed_op_share is
// reported alongside but is not in this list: it is 0 on a correct
// program, and the contract carries it as failed/attempted instead.
var e2eDefs = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"req_p50_us", "us", "lower"},
	{"req_p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"heap_inuse_mb", "MB", "lower"},
	{"peak_retired_nodes", "count", "lower"},
	{"setup_s", "s", "lower"},
}

// layerDefs are the per-layer metrics of a traced run.
var layerDefs = []metricDef{
	{"mem.load_ns", "ns", "lower"},
	{"mem.cas_ns", "ns", "lower"},
	{"mem.alloc_reclaim_ns", "ns", "lower"},
	{"smr.ebr.bracket_ns", "ns", "lower"},
	{"smr.ebr.readptr_ns", "ns", "lower"},
	{"smr.ebr.retire_ns", "ns", "lower"},
	{"smr.hp.bracket_ns", "ns", "lower"},
	{"smr.hp.readptr_ns", "ns", "lower"},
	{"smr.hp.retire_ns", "ns", "lower"},
	{"smr.vbr.bracket_ns", "ns", "lower"},
	{"smr.vbr.readptr_ns", "ns", "lower"},
	{"smr.vbr.retire_ns", "ns", "lower"},
	{"smr.readptr_per_op", "count", "lower"},
	{"smr.brackets_per_op", "count", "lower"},
	{"smr.retires_per_op", "count", "lower"},
	{"smr.restarts_per_kop", "count", "lower"},
	{"ds.op_ns", "ns", "lower"},
	{"ds.trav_steps_per_op", "count", "lower"},
	{"store.req_us", "us", "lower"},
	{"store.self_us", "us", "lower"},
	{"store.fused_op_share", "share", "higher"},
	{"store.sorts_per_req", "count", "lower"},
	{"store.rebrackets_per_kop", "count", "lower"},
	{"store.handoff_us", "us", "lower"},
	{"exec.req_us", "us", "lower"},
	{"exec.self_us", "us", "lower"},
	{"exec.keyed_req_us", "us", "lower"},
	{"exec.range_req_us", "us", "lower"},
	{"exec.legs_per_req", "count", "lower"},
	{"exec.allocs_per_req", "count", "lower"},
	{"resil.req_us", "us", "lower"},
	{"resil.self_us", "us", "lower"},
	{"resil.allocs_per_req", "count", "lower"},
	{"resil.amplification", "ratio", "lower"},
	{"resil.retries", "count", "lower"},
	{"resil.hedges", "count", "lower"},
	{"ladder.coverage", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"smr.contend.restarts_per_kop", "count", "lower"},
	{"ds.contend.trav_restarts_per_kop", "count", "lower"},
}

// stat is one reported value with the spread of the windows or slices it
// was taken from.
type stat struct {
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// medianOf reports the median: for the counts and sizes read once per
// slice, which nothing disturbs one-sidedly.
func medianOf(vs []float64) stat {
	q := quantiles(vs, 0.25, 0.5, 0.75)
	return stat{Value: q[1], Q1: q[0], Median: q[1], Q3: q[2], N: len(vs)}
}

// fastSide is how far from the fastest window (or set-up) a timing metric
// is read: the 2.5 % quantile on the fast side — about the third best of
// a run's 80 windows.
const fastSide = 0.025

// fastSideOf reports the fastSide quantile on the fast side of the
// samples: the 97.5th percentile of a throughput, the 2.5th of a time.
// This host's noise is one-sided — stretches of a few hundred
// milliseconds to a few seconds in which everything runs 10–35 % slower,
// never faster — and in a noisy spell it spoils well over half of the
// windows, so a median follows the host and not the program. A sample
// cannot come out faster than the program is, so the fast side converges
// on the program's speed from above as soon as a few windows run
// undisturbed; stopping short of the single best window keeps one lucky
// window from deciding (README, "Run layout and statistics", has the
// measurements behind the choice).
func fastSideOf(vs []float64, higherIsBetter bool) stat {
	st := medianOf(vs)
	q := fastSide
	if higherIsBetter {
		q = 1 - fastSide
	}
	st.Value = quantiles(vs, q)[0]
	return st
}

// e2eResult is every end-to-end slice one run took of one workload.
type e2eResult struct {
	slices []sliceResult
}

// stats reduces the slices to the end-to-end metrics. Timing metrics are
// the fast-side quantile over all windows of the per-window statistic
// (over all set-ups, for setup_s), never total/elapsed, so slow stretches
// of host time move some windows and not the result; the counts and
// sizes read once per slice are the median over slices.
func (e *e2eResult) stats() map[string]stat {
	var ops, p50, p99, cpu, allocs, heap, retired, setup []float64
	for _, s := range e.slices {
		for _, w := range s.Windows {
			ops = append(ops, w.OpsPerS)
			p50 = append(p50, w.P50us)
			p99 = append(p99, w.P99us)
			cpu = append(cpu, w.CPUusPerOp)
		}
		allocs = append(allocs, s.AllocsPerOp)
		heap = append(heap, s.HeapInuseMB)
		retired = append(retired, float64(s.PeakRetired))
		setup = append(setup, s.SetupS...)
	}
	return map[string]stat{
		"ops_per_s": fastSideOf(ops, true), "req_p50_us": fastSideOf(p50, false),
		"req_p99_us": fastSideOf(p99, false), "cpu_us_per_op": fastSideOf(cpu, false),
		"allocs_per_op": medianOf(allocs), "heap_inuse_mb": medianOf(heap),
		"peak_retired_nodes": medianOf(retired), "setup_s": fastSideOf(setup, false),
	}
}

func (e *e2eResult) reqCount() int {
	n := 0
	for _, s := range e.slices {
		for _, w := range s.Windows {
			n += w.Reqs
		}
	}
	return n
}

func (e *e2eResult) checked() checked {
	var c checked
	for _, s := range e.slices {
		c.add(checked{attempted: s.Attempted, failed: s.Failed, mismatch: s.Mismatch})
	}
	return c
}

// benchmarkFile is the part of BENCHMARK.json the program reads back: the
// bounds are fixed there and nowhere else.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory (the repository root).
func loadBounds() (map[string]float64, error) {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// printE2E prints one workload's end-to-end metrics with their quartiles,
// sample counts and, when known, bounds.
func printE2E(workload string, st map[string]stat, bounds map[string]float64) {
	for _, d := range e2eDefs {
		s := st[d.name]
		bound := ""
		if b, ok := bounds[d.name]; ok {
			bound = fmt.Sprintf("  bound %.0f%%", 100*b)
		}
		fmt.Printf("  %-13s %-19s %14.4f %-6s q1 %.4f  median %.4f  q3 %.4f  n=%d%s\n",
			workload, d.name, s.Value, d.unit, s.Q1, s.Median, s.Q3, s.N, bound)
	}
}

// perWorkload reports whether a per-layer metric depends on the workload
// it was traced under; the rest are unit costs, measured once.
func perWorkload(name string) bool {
	for _, prefix := range []string{"mem.", "smr.ebr.", "smr.hp.", "smr.vbr.", "smr.contend.", "ds.contend.", "store.handoff_us"} {
		if strings.HasPrefix(name, prefix) {
			return false
		}
	}
	return true
}

// qualified is a per-workload layer metric's full name: the workload goes
// in after the layer, as in ds.batch-read.op_ns.
func qualified(name, workload string) string {
	layer, rest, _ := strings.Cut(name, ".")
	return layer + "." + workload + "." + rest
}

// fullResult is what a full run writes to out/result.json.
type fullResult struct {
	Seed      uint64                     `json:"seed"`
	Claim     any                        `json:"claim"` // this benchmark measures; it claims nothing
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	EndToEnd  map[string]map[string]stat `json:"end_to_end"` // workload → metric
	ReqCount  map[string]int             `json:"req_count"`
	PerLayer  map[string]float64         `json:"per_layer"` // qualified names
}

// e2eAll takes p.rounds rounds of one slice per workload, rotating the
// order every round so no workload always runs in the same neighbour's
// wake.
func (p plan) e2eAll() (map[string]*e2eResult, error) {
	res := map[string]*e2eResult{}
	for i := range specs {
		res[specs[i].name] = &e2eResult{}
	}
	for round := 0; round < p.rounds; round++ {
		for k := range specs {
			sp := &specs[(round+k)%len(specs)]
			s, err := p.measure(sp)
			if err != nil {
				return nil, err
			}
			res[sp.name].slices = append(res[sp.name].slices, s)
		}
	}
	return res, nil
}

// runFull is the one command: every workload end to end, the unit costs,
// the traced ladder, every metric printed by name with its unit, outputs
// verified.
func runFull(p plan) error {
	header(p.seed)
	bounds, err := loadBounds()
	if err != nil {
		fmt.Printf("benchmark: bounds unknown (%v)\n", err)
	}
	e2e, err := p.e2eAll()
	if err != nil {
		return err
	}
	full := fullResult{
		Seed: p.seed, EndToEnd: map[string]map[string]stat{}, ReqCount: map[string]int{}, PerLayer: map[string]float64{},
	}
	var c checked
	fmt.Println("end-to-end (fast-side quantile over windows and set-ups, median over slices for counts and sizes; quartiles; sample count):")
	for i := range specs {
		name := specs[i].name
		r := e2e[name]
		st := r.stats()
		printE2E(name, st, bounds)
		rc := r.checked()
		fmt.Printf("  %-13s %-19s %14.6f %-6s (%d of %d ops)   req_count %d\n",
			name, "failed_op_share", float64(rc.failed)/float64(rc.attempted), "share", rc.failed, rc.attempted, r.reqCount())
		full.EndToEnd[name], full.ReqCount[name] = st, r.reqCount()
		c.add(rc)
	}

	unit, uc, err := p.unitCosts()
	if err != nil {
		return err
	}
	c.add(uc)
	for k, v := range unit {
		full.PerLayer[k] = v
	}
	for i := range specs {
		sp := &specs[i]
		layer, lc, err := p.traceWorkload(sp, e2e[sp.name])
		if err != nil {
			return err
		}
		c.add(lc)
		for k, v := range layer {
			full.PerLayer[qualified(k, sp.name)] = v
		}
	}
	fmt.Println("per-layer (traced ladder, micro-loops, concurrency probe):")
	for _, d := range layerDefs {
		names := []string{d.name}
		if perWorkload(d.name) {
			names = names[:0]
			for i := range specs {
				names = append(names, qualified(d.name, specs[i].name))
			}
		}
		for _, name := range names {
			fmt.Printf("  %-40s %14.4f %s\n", name, full.PerLayer[name], d.unit)
		}
	}

	full.Correct, full.Attempted, full.Failed = c.failed == 0, c.attempted, c.failed
	if err := writeJSON(filepath.Join(p.outDir, "result.json"), full); err != nil {
		return err
	}
	fmt.Printf("verified %d operations against the set oracle, %d failed; wrote %s and trace-<workload>.json beside it\n",
		c.attempted, c.failed, filepath.Join(p.outDir, "result.json"))
	if c.failed != 0 {
		fmt.Printf("benchmark: VERIFICATION FAILED: %s\n", c.mismatch)
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAA is the benchmark's own repeatability test: two interleaved sets
// of n end-to-end runs of the same binary. Each set's value is the median
// of its runs' values; the sets must agree within every metric's bound.
func runAA(n int, p plan) error {
	header(p.seed)
	bounds, err := loadBounds()
	if err != nil {
		return fmt.Errorf("-aa needs the bounds: %w", err)
	}
	// sets[set][workload][metric] = one value per run
	sets := [2]map[string]map[string][]float64{{}, {}}
	for run := 0; run < 2*n; run++ {
		fmt.Printf("A/A run %d of %d (set %c)\n", run+1, 2*n, 'A'+rune(run%2))
		e2e, err := p.e2eAll()
		if err != nil {
			return err
		}
		for name, r := range e2e {
			if c := r.checked(); c.failed != 0 {
				return fmt.Errorf("%s: %w: %s", name, errIncorrect, c.mismatch)
			}
			set := sets[run%2]
			if set[name] == nil {
				set[name] = map[string][]float64{}
			}
			for metric, s := range r.stats() {
				set[name][metric] = append(set[name][metric], s.Value)
			}
		}
	}
	fmt.Printf("%-13s %-19s %14s %14s %9s %7s\n", "workload", "metric", "set A", "set B", "disagree", "bound")
	var breaches []string
	worst := map[string]float64{}
	for i := range specs {
		name := specs[i].name
		for _, d := range e2eDefs {
			a, b := median(sets[0][name][d.name]), median(sets[1][name][d.name])
			dis := math.Abs(a-b) / math.Min(a, b)
			flag := ""
			if dis > bounds[d.name] {
				flag = "  BREACH"
				breaches = append(breaches, name+"/"+d.name)
			}
			worst[d.name] = math.Max(worst[d.name], dis)
			fmt.Printf("%-13s %-19s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", name, d.name, a, b, 100*dis, 100*bounds[d.name], flag)
		}
	}
	names := make([]string, 0, len(worst))
	for k := range worst {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Print("worst disagreement per metric:")
	for _, k := range names {
		fmt.Printf("  %s %.2f%%", k, 100*worst[k])
	}
	fmt.Println()
	if len(breaches) > 0 {
		return fmt.Errorf("A/A sets disagree beyond the bound on %s", strings.Join(breaches, ", "))
	}
	return nil
}
