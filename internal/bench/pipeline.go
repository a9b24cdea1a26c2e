package bench

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/obs/rec"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// pipelineConfig is what EXP-PIPELINE — the blocking-loop vs pipelined
// scatter-gather A/B over a multi-key/range request mix, plus the
// partial-failure campaign that stalls one shard under chaos and checks
// the executor degrades it instead of the whole fan-out — varies between
// its smoke and full scale.
type pipelineConfig struct {
	// duration is each A/B arm's traffic window; chaosDuration the
	// campaign's — long enough for the stall to saturate the leg budget
	// and shed.
	duration      time.Duration
	chaosDuration time.Duration
	keyRange      int
	// legTimeout is the campaign's leg completion budget. The healthy A/B
	// arms run without one.
	legTimeout time.Duration
	seed       uint64
}

func (p Profile) pipelineConfig() pipelineConfig {
	if p.Short {
		return pipelineConfig{duration: 250 * time.Millisecond, chaosDuration: 400 * time.Millisecond,
			keyRange: 1024, legTimeout: 20 * time.Millisecond, seed: p.Seed}
	}
	return pipelineConfig{duration: time.Second, chaosDuration: time.Second,
		keyRange: 4096, legTimeout: 25 * time.Millisecond, seed: p.Seed}
}

// The fan-out deployment EXP-PIPELINE and EXP-RESIL share: ebr shards of
// Michael's list (ordered iteration lets range legs early-stop at the
// upper bound) under a request mix where every request scatters — the
// shape the executor exists for.
const (
	fanoutShards    = 4
	fanoutScheme    = "ebr"
	fanoutStructure = "michael"
	fanoutMultiSize = 8 // keys per multi-key request
)

const (
	pipelineClients = fanoutShards
	// pipelineWindow is the pipelined arm's per-client in-flight budget.
	// The blocking arm is window = 1 by construction.
	pipelineWindow = 8
	// pipelineFaultShard is the campaign's stalled shard. Its single
	// worker means the stall fully parks it — the case where partial
	// results and saturation shedding must carry the service.
	pipelineFaultShard = 1
	// pipelineChaosQueue narrows the campaign's executor queues so a
	// stalled shard's admission pressure shows inside a short window.
	pipelineChaosQueue = 8
)

// PipelineArmRow is one A/B arm's measurement. Requests are whole
// cross-shard requests (a multiget, a range scan); P50/P99 are
// request completion latencies — submit to merged result.
type PipelineArmRow struct {
	Arm        string        `json:"arm"`
	Requests   uint64        `json:"requests"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	ReqPerSec  float64       `json:"req_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	Partial    uint64        `json:"partial,omitempty"`
	Sheds      uint64        `json:"sheds,omitempty"`
	Timeouts   uint64        `json:"timeouts,omitempty"`
	ReqPerSecX float64       `json:"speedup_vs_blocking,omitempty"`
}

// PipelineChaosRow is the partial-failure campaign's measurement: the
// fan-out picture while one shard is chaos-stalled, and whether the
// failure chain closed (fault fired → typed partial results → heal →
// clean request).
type PipelineChaosRow struct {
	FaultShard int           `json:"fault_shard"`
	Window     time.Duration `json:"window_ns"`
	Requests   uint64        `json:"requests"`
	Partial    uint64        `json:"partial"`
	Sheds      uint64        `json:"sheds"`
	Timeouts   uint64        `json:"timeouts"`
	// DegradedSeen reports the stalled shard observed effectively
	// degraded during the window — the verdict loop flipping it, or its
	// stalled-call budget saturating (the fully-parked case).
	DegradedSeen bool `json:"degraded_seen"`
	// HealthyP50/P99 are completion latencies of the *non-partial*
	// requests in the window — the tail the surviving shards serve while
	// one shard is parked.
	HealthyP50 time.Duration `json:"healthy_p50_ns"`
	HealthyP99 time.Duration `json:"healthy_p99_ns"`
	FaultFired bool          `json:"fault_fired"`
	FaultHeals bool          `json:"fault_healed"`
	// CleanAfterHeal is the chain's last link: a full-width request after
	// heal with no partial errors.
	CleanAfterHeal bool `json:"clean_after_heal"`
	// ScatterEvents/MergeEvents/ShedEvents count the exec events on the
	// campaign's flight recorder.
	ScatterEvents int `json:"scatter_events"`
	MergeEvents   int `json:"merge_events"`
	ShedEvents    int `json:"shed_events"`
}

// PipelineResult is the full EXP-PIPELINE outcome.
type PipelineResult struct {
	Shards    int              `json:"shards"`
	Workers   int              `json:"workers_per_shard"`
	Clients   int              `json:"clients"`
	Window    int              `json:"window"`
	Structure string           `json:"structure"`
	ReqMix    workload.ReqMix  `json:"req_mix"`
	Blocking  PipelineArmRow   `json:"blocking"`
	Pipelined PipelineArmRow   `json:"pipelined"`
	Chaos     PipelineChaosRow `json:"chaos"`
	// PipelinedBeatsBlocking and PartialChainsClosed are the experiment's
	// two acceptance booleans (the CI smoke greps them).
	PipelinedBeatsBlocking bool `json:"pipelined_beats_blocking"`
	PartialChainsClosed    bool `json:"partial_chains_closed"`
}

// newFanoutStore builds the fan-out deployment (gated when a campaign
// needs chaos hooks) and prefills it to half occupancy.
func newFanoutStore(workers, keyRange int, seed uint64, gated bool, recorder *rec.Recorder) (*store.Store, []*sched.Breakpoints, error) {
	specs := store.Uniform(fanoutShards, store.ShardSpec{
		Scheme: fanoutScheme, Structure: fanoutStructure, Workers: workers,
	})
	var gates []*sched.Breakpoints
	if gated {
		gates = make([]*sched.Breakpoints, fanoutShards)
		for i := range specs {
			gates[i] = sched.NewBreakpoints()
			specs[i].Gate = gates[i]
		}
	}
	st, err := store.New(store.Config{Shards: specs, KeyRange: keyRange, Recorder: recorder})
	if err != nil {
		return nil, nil, err
	}
	if err := prefillHalf(st, keyRange, 64, seed); err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, gates, nil
}

// fanoutReqSource builds the deployment's deterministic request stream.
func fanoutReqSource(mix workload.ReqMix, keyRange int, seed uint64) (*workload.ReqSource, error) {
	return workload.NewReqSource(workload.ReqConfig{
		Dist: "uniform", KeyRange: keyRange, Mix: mix, MultiSize: fanoutMultiSize, Seed: seed,
	})
}

// runBlockingArm is the baseline: each client executes one request at a
// time against the store's native interface — a blocking Do for
// point/multi requests, a sequential shard-by-shard loop for ranges —
// and waits for the merged answer before drawing the next request.
func runBlockingArm(st *store.Store, src *workload.ReqSource, deadline time.Time) tally {
	return runClients(pipelineClients, func(c int, t *tally) {
		stream := src.Thread(c, 1<<20)
		for time.Now().Before(deadline) {
			req := stream.Next()
			t0 := time.Now()
			if t.err = blockingExecute(st, req); t.err != nil {
				return
			}
			t.lat.Record(time.Since(t0))
			t.n++
		}
	})
}

// blockingExecute serves one request the pre-exec way. Per-op errors are
// service behaviour (absorbed); only store-level failures propagate.
func blockingExecute(st *store.Store, req workload.Req) error {
	switch req.Kind {
	case workload.ReqPoint, workload.ReqMultiGet, workload.ReqMultiInsert, workload.ReqMultiDelete:
		ops := make([]store.Op, len(req.Keys))
		for i, k := range req.Keys {
			ops[i] = store.Op{Kind: workload.OpContains, Key: k}
			switch req.Kind {
			case workload.ReqPoint:
				ops[i].Kind = req.Ops[i]
			case workload.ReqMultiInsert:
				ops[i].Kind = workload.OpInsert
			case workload.ReqMultiDelete:
				ops[i].Kind = workload.OpDelete
			}
		}
		_, err := st.Do(ops)
		return err
	case workload.ReqRangeScan, workload.ReqRangeCount:
		for s := 0; s < st.Shards(); s++ {
			if _, _, err := st.ScanShard(s, req.Lo, req.Hi, 0, req.Kind == workload.ReqRangeCount); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("bench: unknown request kind %v", req.Kind)
	}
}

// runPipelinedArm drives the executor with a per-client window of
// asynchronous handles: submit until the window is full, then retire the
// oldest — the pipelining the exec layer buys. The tally counts requests
// completed and partial results, with completion latencies for all
// requests and for the fully-successful ("healthy") ones alone.
func runPipelinedArm(ex *exec.Executor, src *workload.ReqSource, deadline time.Time) tally {
	return runClients(pipelineClients, func(c int, t *tally) {
		stream := src.Thread(c, 1<<20)
		window := make([]*exec.Handle, 0, pipelineWindow)
		retire := func(h *exec.Handle) {
			res := h.Wait()
			t.lat.Record(res.Elapsed)
			t.n++
			if res.Partial() {
				t.partial++
			} else {
				t.healthy.Record(res.Elapsed)
			}
		}
		for time.Now().Before(deadline) {
			h, err := ex.Submit(stream.Next())
			if err != nil {
				t.err = err
				return
			}
			window = append(window, h)
			if len(window) == pipelineWindow {
				retire(window[0])
				window = append(window[:0], window[1:]...)
			}
		}
		for _, h := range window {
			retire(h)
		}
	})
}

// runPipeline runs EXP-PIPELINE: the blocking baseline arm, the
// pipelined arm on an identical fresh store, then the partial-failure
// campaign under a chaos stall with the verdict-driven admission loop
// live. Each phase uses the same seed, so the arms draw identical
// request streams.
func runPipeline(p Profile) (Result, error) {
	cfg := p.pipelineConfig()
	res := PipelineResult{
		Shards:    fanoutShards,
		Workers:   1,
		Clients:   pipelineClients,
		Window:    pipelineWindow,
		Structure: fanoutStructure,
		ReqMix:    workload.ReqMixFanout,
	}

	// Both arms draw the same request streams: a source's per-client
	// stream is a function of its seed and the client alone.
	src, err := fanoutReqSource(workload.ReqMixFanout, cfg.keyRange, cfg.seed)
	if err != nil {
		return nil, err
	}

	// Arm A: blocking loop over the store's native interface.
	{
		st, _, err := newFanoutStore(1, cfg.keyRange, cfg.seed, false, nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		t := runBlockingArm(st, src, start.Add(cfg.duration))
		elapsed := time.Since(start)
		if err := cmp.Or(t.err, st.Close()); err != nil {
			return nil, err
		}
		res.Blocking = PipelineArmRow{
			Arm: "blocking", Requests: t.n, Elapsed: elapsed,
			ReqPerSec: float64(t.n) / elapsed.Seconds(),
			P50:       t.lat.Percentile(0.50), P99: t.lat.Percentile(0.99),
		}
	}

	// Arm B: pipelined scatter-gather on an identical fresh store.
	{
		st, _, err := newFanoutStore(1, cfg.keyRange, cfg.seed, false, nil)
		if err != nil {
			return nil, err
		}
		// The healthy arm disables the leg budget: there is no fault to
		// bound, and the budget's watchdog goroutine would tax every leg.
		// The campaign re-enables it and pays for it there.
		ex, err := exec.New(st, exec.Config{LegTimeout: -1})
		if err != nil {
			st.Close()
			return nil, err
		}
		start := time.Now()
		t := runPipelinedArm(ex, src, start.Add(cfg.duration))
		elapsed := time.Since(start)
		stats := ex.Stats()
		if err := cmp.Or(t.err, ex.Close(), st.Close()); err != nil {
			return nil, err
		}
		res.Pipelined = PipelineArmRow{
			Arm: "pipelined", Requests: t.n, Elapsed: elapsed,
			ReqPerSec: float64(t.n) / elapsed.Seconds(),
			P50:       t.lat.Percentile(0.50), P99: t.lat.Percentile(0.99),
			Partial: t.partial, Sheds: stats.Sheds, Timeouts: stats.Timeouts,
		}
		if res.Blocking.ReqPerSec > 0 {
			res.Pipelined.ReqPerSecX = res.Pipelined.ReqPerSec / res.Blocking.ReqPerSec
		}
	}
	res.PipelinedBeatsBlocking = res.Pipelined.ReqPerSec > res.Blocking.ReqPerSec

	// Campaign: stall one shard under live traffic with the full
	// admission loop (sampler → monitor → verdict → degrade) attached.
	chaosRow, err := runPipelineChaos(cfg)
	if err != nil {
		return nil, err
	}
	res.Chaos = chaosRow
	res.PartialChainsClosed = chaosRow.FaultFired && chaosRow.Partial > 0 &&
		chaosRow.FaultHeals && chaosRow.CleanAfterHeal
	return res, nil
}

// runPipelineChaos is the partial-failure campaign: a gated store, the
// verdict-driven admission loop live, one shard chaos-stalled for the
// window, pipelined traffic throughout, then heal and a clean full-width
// probe.
func runPipelineChaos(cfg pipelineConfig) (PipelineChaosRow, error) {
	row := PipelineChaosRow{FaultShard: pipelineFaultShard, Window: cfg.chaosDuration}
	recorder := rec.NewRecorder(nil, 0)
	st, gates, err := newFanoutStore(1, cfg.keyRange, cfg.seed, true, recorder)
	if err != nil {
		return row, err
	}
	defer st.Close()

	// The admission loop: gauge-tap sampler → online monitor → the
	// executor's per-shard health, the same classifier the adaptive
	// controller trusts.
	mon, err := adaptMonitor(st, nil)
	if err != nil {
		return row, err
	}
	sampler := telemetry.NewSampler(
		telemetry.Config{Interval: sampleEvery(cfg.chaosDuration), Capacity: 4096,
			OnSample: mon.Observe, Recorder: recorder},
		storeProbe(st))
	sampler.Start()
	defer sampler.Stop()

	ex, err := exec.New(st, exec.Config{
		QueueDepth: pipelineChaosQueue,
		LegTimeout: cfg.legTimeout,
		Verdicts:   mon,
		Recorder:   recorder,
	})
	if err != nil {
		return row, err
	}
	defer ex.Close()

	engine := chaos.NewEngine(&chaos.Target{Store: st, Gates: gates, KeyRange: cfg.keyRange})
	engine.SetObs(nil, recorder)
	if err := engine.Add("stall", chaos.Params{Shard: pipelineFaultShard}, chaos.OneShot(0)); err != nil {
		return row, err
	}
	engine.Start()

	src, err := fanoutReqSource(workload.ReqMixFanout, cfg.keyRange, cfg.seed)
	if err != nil {
		engine.Stop()
		return row, err
	}
	deadline := time.Now().Add(cfg.chaosDuration)
	degraded := make(chan bool, 1)
	go func() {
		// Watch for the verdict loop flipping the stalled shard while
		// traffic runs; one observation is enough.
		for time.Now().Before(deadline) {
			if ex.Health(pipelineFaultShard) != exec.Healthy {
				degraded <- true
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		degraded <- false
	}()
	t := runPipelinedArm(ex, src, deadline)
	row.DegradedSeen = <-degraded
	if t.err != nil {
		engine.Stop()
		return row, t.err
	}
	stats := ex.Stats()
	row.Requests = t.n
	row.Partial = t.partial
	row.Sheds = stats.Sheds
	row.Timeouts = stats.Timeouts
	row.HealthyP50 = t.healthy.Percentile(0.50)
	row.HealthyP99 = t.healthy.Percentile(0.99)

	for _, ev := range engine.Events() {
		if ev.Fault == "stall" {
			row.FaultFired = ev.Err == ""
		}
	}
	// Heal (Stop releases the held one-shot), then close the chain with a
	// full-width probe: every shard answers, no partial errors.
	engine.Stop()
	for _, ev := range engine.Events() {
		if ev.Fault == "stall" && ev.Healed > 0 {
			row.FaultHeals = true
		}
	}
	cleanDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(cleanDeadline) {
		h, err := ex.RangeCount(0, int64(cfg.keyRange))
		if err != nil {
			return row, err
		}
		if !h.Wait().Partial() {
			row.CleanAfterHeal = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, ev := range recorder.Snapshot() {
		switch ev.Kind {
		case rec.KindExecScatter:
			row.ScatterEvents++
		case rec.KindExecMerge:
			row.MergeEvents++
		case rec.KindExecShed:
			row.ShedEvents++
		}
	}
	return row, nil
}

// Gates: the pipelined arm out-runs the blocking loop, and the
// partial-failure chain closed (fault fired → typed partial results →
// heal → clean full-width request).
func (res PipelineResult) Gates() []Gate {
	return []Gate{
		{Name: "pipelined_beats_blocking", OK: res.PipelinedBeatsBlocking,
			Detail: fmt.Sprintf("pipelined arm (%.0f req/s) did not beat blocking (%.0f req/s)",
				res.Pipelined.ReqPerSec, res.Blocking.ReqPerSec)},
		{Name: "partial_chains_closed", OK: res.PartialChainsClosed,
			Detail: fmt.Sprintf("partial-failure chain open: fired=%v partial=%d healed=%v clean=%v",
				res.Chaos.FaultFired, res.Chaos.Partial, res.Chaos.FaultHeals, res.Chaos.CleanAfterHeal)},
	}
}

// WriteTable renders EXP-PIPELINE: one line per A/B arm, the
// partial-failure campaign summary, then the two acceptance headlines.
func (res PipelineResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-10s %10s %12s %10s %10s %8s %7s %8s\n",
		"arm", "requests", "req/s", "p50", "p99", "partial", "sheds", "timeouts")
	for _, a := range []PipelineArmRow{res.Blocking, res.Pipelined} {
		fmt.Fprintf(w, "%-10s %10d %12.0f %10s %10s %8d %7d %8d\n",
			a.Arm, a.Requests, a.ReqPerSec, fmtLatency(a.P50), fmtLatency(a.P99),
			a.Partial, a.Sheds, a.Timeouts)
	}
	c := res.Chaos
	fmt.Fprintf(w, "chaos: shard %d stalled %s — %d requests, %d partial, %d sheds, %d timeouts, degraded seen %v\n",
		c.FaultShard, c.Window.Round(time.Millisecond), c.Requests, c.Partial, c.Sheds, c.Timeouts, c.DegradedSeen)
	fmt.Fprintf(w, "       healthy-request p50 %s p99 %s; fault fired %v healed %v clean-after-heal %v\n",
		fmtLatency(c.HealthyP50), fmtLatency(c.HealthyP99), c.FaultFired, c.FaultHeals, c.CleanAfterHeal)
	fmt.Fprintf(w, "       recorder: %d scatter / %d merge / %d shed events\n",
		c.ScatterEvents, c.MergeEvents, c.ShedEvents)
	fmt.Fprintf(w, "aggregate: %d shards × %d workers, %d clients, window %d, %s mix %s\n",
		res.Shards, res.Workers, res.Clients, res.Window, res.Structure, res.ReqMix)
	fmt.Fprintf(w, "           pipelined beats blocking: %v (%.2fx); partial chains closed: %v\n",
		res.PipelinedBeatsBlocking, res.Pipelined.ReqPerSecX, res.PartialChainsClosed)
}
