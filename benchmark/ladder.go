package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ds"
	"repro/internal/smr"
)

// The traced ladder. Each rung replays the same request prefix on its own
// identically prefilled deployment and records one span per request; a
// rung's self time on request i is its span minus its child rung's span
// on request i. The rungs do not nest in real time — they run one after
// another — so spans carry the parent *layer*, and request_id is what
// joins them.

// ladderLayers is the ladder outside-in; each layer's parent is the one
// before it, and the client is the parent of the outermost.
var ladderLayers = []string{"resil", "exec", "store", "ds"}

func parentOf(layer string) string {
	for i, l := range ladderLayers {
		if l == layer && i > 0 {
			return ladderLayers[i-1]
		}
	}
	return "client"
}

// span is one traced call into a layer.
type span struct {
	Layer     string `json:"layer"`
	Workload  string `json:"workload"`
	RequestID int    `json:"request_id"`
	Parent    string `json:"parent"`
	StartNs   int64  `json:"start_ns"` // offset on the recording rung's own clock
	EndNs     int64  `json:"end_ns"`
}

// rungTrace is one rung's traced replay.
type rungTrace struct {
	starts   []time.Duration
	spans    []time.Duration
	checks   []uint64 // warm-up requests included, for the oracle
	failed   int
	mallocs  uint64            // Go-heap allocations during the traced requests
	counters map[string]uint64 // counter deltas over the traced requests
}

// ladderResult is what the ladder child reports: the per-layer metrics
// that come from spans and counters, and the client path's summed self
// times, which the parent divides by the end-to-end p50 for coverage.
type ladderResult struct {
	Metrics    map[string]float64 `json:"metrics"`
	PathSelfUs float64            `json:"path_self_us"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Mismatch   string             `json:"mismatch,omitempty"`
}

func (d *dsRung) counters() map[string]uint64 {
	c := map[string]uint64{}
	for i, set := range d.sets {
		tv := set.(ds.TravReporter).TravSnapshot()
		c["trav_steps"] += tv.Steps
		c["restarts"] += d.schemes[i].Stats().Restarts.Load()
		if cs, ok := d.schemes[i].(*countingScheme); ok {
			c["readptrs"] += cs.readPtrs
			c["brackets"] += cs.brackets
			c["retires"] += cs.retires
		}
	}
	return c
}

func (s *storeRung) counters() map[string]uint64 {
	st := s.st.Stats()
	return map[string]uint64{
		"ops": st.Ops, "fused_ops": st.FusedOps, "batch_sorts": st.BatchSorts, "rebrackets": st.Rebrackets,
	}
}

func (e *execRung) counters() map[string]uint64 {
	return map[string]uint64{"legs": e.ex.Stats().Legs}
}

func (e *resilRung) counters() map[string]uint64 {
	st := e.c.Stats()
	return map[string]uint64{
		"retries": st.Retries, "hedges": st.Hedges,
		"offered_units": st.OfferedUnits, "dispatched_units": st.AttemptUnits + st.HedgeUnits,
	}
}

// traceRung prefills rg, replays warm requests untraced and then traced
// requests with a span each.
func traceRung(layer string, rg rung, batches, reqs []request, warm, traced int) (*rungTrace, error) {
	if err := prefill(rg, batches); err != nil {
		return nil, fmt.Errorf("%s rung: %w", layer, err)
	}
	tr := &rungTrace{
		starts: make([]time.Duration, traced),
		spans:  make([]time.Duration, traced),
		checks: make([]uint64, warm+traced),
	}
	for i := 0; i < warm; i++ {
		r := &reqs[i%len(reqs)]
		rg.prep(r)
		_, check, failed := rg.run(r)
		tr.checks[i] = check
		tr.failed += failed
	}
	runtime.GC()
	before := rg.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	clock := now()
	for i := 0; i < traced; i++ {
		r := &reqs[(warm+i)%len(reqs)]
		rg.prep(r)
		tr.starts[i] = now() - clock
		span, check, failed := rg.run(r)
		tr.spans[i] = span
		tr.checks[warm+i] = check
		tr.failed += failed
	}
	runtime.ReadMemStats(&m1)
	tr.mallocs = m1.Mallocs - m0.Mallocs
	tr.counters = rg.counters()
	for k, v := range before {
		tr.counters[k] -= v
	}
	return tr, nil
}

func spanMedianUs(spans []time.Duration) float64 {
	us := make([]float64, len(spans))
	for i, s := range spans {
		us[i] = float64(s) / 1e3
	}
	return median(us)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func runLadder(j job) (*ladderResult, error) {
	sp, err := specByName(j.Workload)
	if err != nil {
		return nil, err
	}
	reqs, err := sp.genRequests(j.Seed)
	if err != nil {
		return nil, err
	}
	batches, err := sp.genPrefill(j.Seed)
	if err != nil {
		return nil, err
	}
	warm, traced := j.Warm, j.Requests

	// The rungs, bottom-up. "ds-count" is the ds rung again behind the
	// counting scheme wrapper: its counts are exact, its spans are not
	// used (the wrapper costs an indirect call per barrier).
	builders := []struct {
		layer string
		build func() (rung, error)
	}{
		{"ds", func() (rung, error) { return newDSRung(sp, nil) }},
		{"ds-count", func() (rung, error) {
			return newDSRung(sp, func(s smr.Scheme) smr.Scheme { return &countingScheme{Scheme: s} })
		}},
		{"store", func() (rung, error) { return newStoreRung(sp) }},
		{"exec", func() (rung, error) { return newExecRung(sp) }},
		{"resil", func() (rung, error) { return newResilRung(sp) }},
	}
	traces := map[string]*rungTrace{}
	for _, b := range builders {
		rg, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("%s rung: %w", b.layer, err)
		}
		tr, err := traceRung(b.layer, rg, batches, reqs, warm, traced)
		if cerr := rg.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		traces[b.layer] = tr
	}

	// Oracle: every rung must have produced the model's outputs.
	res := &ladderResult{Metrics: map[string]float64{}}
	for _, b := range builders {
		tr := traces[b.layer]
		v := verify(newModel(sp.keyRange), batches, reqs, func(i int) uint64 { return tr.checks[i] }, warm+traced)
		for i := 0; i < warm+traced; i++ {
			res.Attempted += reqs[i%len(reqs)].weight()
		}
		res.Failed += tr.failed + v.failedOps
		if res.Mismatch == "" && (v.first != "" || tr.failed > 0) {
			res.Mismatch = fmt.Sprintf("%s rung: %d errored ops; %s", b.layer, tr.failed, v.first)
		}
	}

	ops := 0 // key-level ops in the traced requests
	var keyed, ranged []int
	for i := 0; i < traced; i++ {
		r := &reqs[(warm+i)%len(reqs)]
		ops += r.weight()
		if r.isRange() {
			ranged = append(ranged, i)
		} else {
			keyed = append(keyed, i)
		}
	}
	dsT, cnt, stT, exT, rsT := traces["ds"], traces["ds-count"], traces["store"], traces["exec"], traces["resil"]
	m := res.Metrics

	perOp := make([]float64, traced)
	for i, s := range dsT.spans {
		perOp[i] = float64(s) / float64(reqs[(warm+i)%len(reqs)].weight())
	}
	m["ds.op_ns"] = median(perOp)
	m["ds.trav_steps_per_op"] = ratio(dsT.counters["trav_steps"], uint64(ops))
	m["smr.readptr_per_op"] = ratio(cnt.counters["readptrs"], uint64(ops))
	m["smr.brackets_per_op"] = ratio(cnt.counters["brackets"], uint64(ops))
	m["smr.retires_per_op"] = ratio(cnt.counters["retires"], uint64(ops))
	m["smr.restarts_per_kop"] = 1000 * ratio(cnt.counters["restarts"], uint64(ops))

	storeSelf := median(selfTimes(stT.spans, dsT.spans))
	m["store.req_us"] = spanMedianUs(stT.spans)
	m["store.self_us"] = storeSelf
	m["store.fused_op_share"] = ratio(stT.counters["fused_ops"], stT.counters["ops"])
	m["store.sorts_per_req"] = ratio(stT.counters["batch_sorts"], uint64(traced))
	m["store.rebrackets_per_kop"] = 1000 * ratio(stT.counters["rebrackets"], stT.counters["ops"])

	pick := func(spans []time.Duration, idx []int) float64 {
		if len(idx) == 0 {
			return 0 // the workload has no request of this class
		}
		sub := make([]time.Duration, len(idx))
		for i, k := range idx {
			sub[i] = spans[k]
		}
		return spanMedianUs(sub)
	}
	execSelf := median(selfTimes(exT.spans, stT.spans))
	m["exec.req_us"] = spanMedianUs(exT.spans)
	m["exec.self_us"] = execSelf
	m["exec.keyed_req_us"] = pick(exT.spans, keyed)
	m["exec.range_req_us"] = pick(exT.spans, ranged)
	m["exec.legs_per_req"] = ratio(exT.counters["legs"], uint64(traced))
	m["exec.allocs_per_req"] = ratio(exT.mallocs, uint64(traced))

	resilSelf := median(selfTimes(rsT.spans, exT.spans))
	m["resil.req_us"] = spanMedianUs(rsT.spans)
	m["resil.self_us"] = resilSelf
	m["resil.allocs_per_req"] = ratio(rsT.mallocs, uint64(traced))
	m["resil.amplification"] = ratio(rsT.counters["dispatched_units"], rsT.counters["offered_units"])
	m["resil.retries"] = float64(rsT.counters["retries"])
	m["resil.hedges"] = float64(rsT.counters["hedges"])

	// The client's own path: self times of the layers its call crosses.
	res.PathSelfUs = spanMedianUs(dsT.spans) + storeSelf
	if sp.viaResil {
		res.PathSelfUs += execSelf + resilSelf
	}

	if j.TracePath != "" {
		var all []span
		for _, layer := range ladderLayers {
			tr := traces[layer]
			for i := range tr.spans {
				all = append(all, span{
					Layer: layer, Workload: sp.name, RequestID: i, Parent: parentOf(layer),
					StartNs: int64(tr.starts[i]), EndNs: int64(tr.starts[i] + tr.spans[i]),
				})
			}
		}
		counters := map[string]map[string]uint64{}
		for layer, tr := range traces {
			counters[layer] = tr.counters
		}
		if err := writeTrace(j.TracePath, traceFile{
			Workload: sp.name, Seed: j.Seed, WarmRequests: warm, TracedRequests: traced,
			Counters: counters, Spans: all,
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceFile is the on-disk trace: spans as recorded, counter deltas per
// rung over the traced requests.
type traceFile struct {
	Workload       string                       `json:"workload"`
	Seed           uint64                       `json:"seed"`
	WarmRequests   int                          `json:"warm_requests"`
	TracedRequests int                          `json:"traced_requests"`
	Counters       map[string]map[string]uint64 `json:"counters,omitempty"`
	Spans          []span                       `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(tf)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
