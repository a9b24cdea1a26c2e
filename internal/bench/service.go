package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/exec"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/resil"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ServiceConfig sizes the sharded-service experiment (EXP-SERVICE): M
// closed-loop clients batching operations into a store whose shards may
// run different reclamation schemes.
type ServiceConfig struct {
	// Shards is the shard count; 0 selects 4.
	Shards int
	// Schemes assigns reclamation schemes to shards, cycled when shorter
	// than Shards (so ["hp","ebr"] alternates). Empty selects ["ebr"].
	Schemes []string
	// Structure is the per-shard set structure; empty selects "hashmap".
	Structure string
	// WorkersPerShard sizes each shard's worker pool; 0 selects 1.
	WorkersPerShard int
	// Clients is the number of closed-loop client goroutines; 0 selects
	// 2 × Shards.
	Clients int
	// OpsPerClient is the measured operation count per client (an untimed
	// warmup of a tenth of it runs first); 0 selects 20000.
	OpsPerClient int
	// Batch is how many operations a client packs into one service
	// request; 0 selects 16.
	Batch int
	// KeyRange is the key universe; 0 selects 4096.
	KeyRange int
	// Mix is the base operation mix; zero selects MixBalanced.
	Mix Mix
	// Workload and Schedule name the key distribution and op-mix schedule
	// (workload registries); empty selects uniform/steady.
	Workload string
	Schedule string
	// Seed makes every client stream deterministic.
	Seed uint64
	// Duration, when positive, switches the run from op-boxed to
	// duration-boxed (the erachaos convention): clients batch until the
	// deadline, OpsPerClient and the warmup are ignored, and
	// per-operation errors are absorbed and counted instead of failing
	// the run — a live migration's swap window surfaces as a transient
	// ErrShardClosed, which is service behaviour, not harness failure.
	Duration time.Duration
	// Adapt, when non-nil, runs the adaptive-reclamation controller
	// (internal/adapt) over the store for the window: a telemetry
	// sampler feeds the online classifier, and shards whose scheme sits
	// on the controller's ladder are escalated/de-escalated live.
	// Requires Duration > 0 — an op-boxed run has no deadline for the
	// control loop to live inside.
	Adapt *adapt.Config
	// FanoutPct, when positive, adds a dedicated fan-out lane beside the
	// point-op fleet: FanoutPct percent of Clients (at least one
	// goroutine) drive cross-shard requests — multi-key gets, inserts,
	// deletes plus range scans and counts, workload.ReqMixFanout — through
	// the pipelined scatter-gather executor for the measured window.
	// Fan-out latency lands in its own histogram and reports as separate
	// p50/p99 rows beside the point-op request latency.
	FanoutPct int
	// FanoutKeys is the key count per multi-key fan-out request; 0
	// selects 8.
	FanoutKeys int
	// NoFuse disables every shard's batch-fused execution path, serving
	// each operation under its own SMR bracket — the per-op baseline arm
	// of the batch sweep (eraserve -nofuse).
	NoFuse bool
	// Retry, Hedge and Breaker route the fan-out lane through the
	// resilience client (internal/resil) instead of the bare executor:
	// typed-error-aware retries, p99-delay hedged legs, and per-shard
	// circuit breakers respectively. Any of the three switches the lane;
	// all require FanoutPct > 0.
	Retry   bool
	Hedge   bool
	Breaker bool
	// FanoutSLO, when positive with a resilient fan-out lane, runs a
	// per-shard tail-latency objective over the lane's settled leg
	// latencies. Breach/clear transitions land on the flight recorder,
	// and — in adaptive runs — are promoted into the telemetry verdict's
	// SLO dimension, so the controller can tell "robust but slow" from
	// "not robust".
	FanoutSLO time.Duration
	// ObsAddr, when non-empty, serves the live observability plane
	// (/metrics, /timeline, /debug/pprof/) on this address for the
	// duration of the run: the store's shards stamp the flight recorder,
	// and — with Adapt — the sampler, monitor and controller share its
	// run clock. The bound URL is reported in the result.
	ObsAddr string
}

func (cfg *ServiceConfig) fill() {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []string{"ebr"}
	}
	if cfg.Structure == "" {
		cfg.Structure = "hashmap"
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 2 * cfg.Shards
	}
	if cfg.OpsPerClient <= 0 {
		cfg.OpsPerClient = 20000
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 4096
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixBalanced
	}
	if cfg.FanoutPct > 100 {
		cfg.FanoutPct = 100
	}
	if cfg.FanoutPct > 0 && cfg.FanoutKeys <= 0 {
		cfg.FanoutKeys = 8
	}
}

// ServiceShardRow is one shard's slice of the service measurement. Ops
// and MopsPerSec cover the timed phase only; the backlog and fault
// counters are cumulative over the shard's lifetime (prefill and warmup
// included — backlog carries across phases).
type ServiceShardRow struct {
	Shard int `json:"shard"`
	// Scheme is the shard's scheme *at measurement end* — after a live
	// migration it names the migrated-to scheme.
	Scheme         string  `json:"scheme"`
	Ops            uint64  `json:"ops"`
	MopsPerSec     float64 `json:"mops_per_sec"`
	Retired        uint64  `json:"retired"`
	MaxRetired     uint64  `json:"max_retired"`
	Faults         uint64  `json:"faults"`
	UnsafeAccesses uint64  `json:"unsafe_accesses"`
	Restarts       uint64  `json:"restarts"`
	// Migrations and Epoch record the shard's swap history (adaptive
	// runs; zero in static deployments).
	Migrations uint64 `json:"migrations,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
}

// ServiceRow is the aggregate service measurement. P50/P99 are
// *service-request* latencies — one batched Do as seen by a client,
// queueing included — which is what a service's tail means.
type ServiceRow struct {
	Shards     int           `json:"shards"`
	Schemes    []string      `json:"schemes"`
	Structure  string        `json:"structure"`
	Clients    int           `json:"clients"`
	Batch      int           `json:"batch"`
	Workers    int           `json:"workers_per_shard"`
	Mix        Mix           `json:"mix"`
	Workload   string        `json:"workload"`
	Schedule   string        `json:"schedule"`
	KeyRange   int           `json:"key_range"`
	Ops        int           `json:"ops"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	MopsPerSec float64       `json:"mops_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`

	PeakRetired    uint64 `json:"peak_retired"`
	Faults         uint64 `json:"faults"`
	UnsafeAccesses uint64 `json:"unsafe_accesses"`
	Restarts       uint64 `json:"restarts"`
	// OpErrs counts tolerated per-operation errors (duration-boxed runs
	// only; op-boxed runs fail on the first one).
	OpErrs uint64 `json:"op_errs,omitempty"`
	// Migrations totals the live scheme migrations across shards.
	Migrations uint64 `json:"migrations,omitempty"`

	// Fan-out lane measurement (FanoutPct runs only): cross-shard
	// requests scattered through the pipelined executor, with their own
	// percentiles beside the point-op P50/P99. FanoutPartial counts
	// requests that completed with at least one failed leg; FanoutErrs
	// counts tolerated per-key errors inside otherwise-complete results.
	FanoutPct     int           `json:"fanout_pct,omitempty"`
	FanoutClients int           `json:"fanout_clients,omitempty"`
	FanoutReqs    uint64        `json:"fanout_reqs,omitempty"`
	FanoutP50     time.Duration `json:"fanout_p50_ns,omitempty"`
	FanoutP99     time.Duration `json:"fanout_p99_ns,omitempty"`
	FanoutPartial uint64        `json:"fanout_partial,omitempty"`
	FanoutErrs    uint64        `json:"fanout_errs,omitempty"`
	// FanoutSheds counts legs the lane saw rejected under saturation
	// (exec.ErrShed anywhere in a result's error chain). The resilience
	// counters below are live only when the lane runs through the resil
	// client (Retry/Hedge/Breaker): retries re-submitted, requests
	// recovered clean by a retry, hedges launched, and hedge races won
	// by the duplicate.
	FanoutSheds     uint64 `json:"fanout_sheds,omitempty"`
	FanoutRetries   uint64 `json:"fanout_retries,omitempty"`
	FanoutRecovered uint64 `json:"fanout_recovered,omitempty"`
	FanoutHedges    uint64 `json:"fanout_hedges,omitempty"`
	FanoutHedgeWins uint64 `json:"fanout_hedge_wins,omitempty"`
}

// ServiceResult pairs the aggregate row with the per-shard breakdown
// (the BENCH_service.json artifact).
type ServiceResult struct {
	Aggregate ServiceRow        `json:"aggregate"`
	PerShard  []ServiceShardRow `json:"per_shard"`
	// Episodes is the adaptive controller's migration log (adaptive runs
	// only).
	Episodes []adapt.Episode `json:"episodes,omitempty"`
	// ObsURL is the live plane's bound URL (ObsAddr runs only).
	ObsURL string `json:"obs_url,omitempty"`
}

// Gates: the service measurement records shape, not a claim.
func (ServiceResult) Gates() []Gate { return nil }

// WriteTable renders the sharded-service measurement: the per-shard
// breakdown (scheme = the shard's *current* scheme), the adaptive
// migration log when there is one, then the aggregate lines.
func (res ServiceResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-6s %-11s %12s %10s %10s %12s %8s %8s %9s %6s\n",
		"shard", "scheme", "ops", "Mops/s", "retired", "peak-retired", "faults", "unsafe", "restarts", "moves")
	for _, r := range res.PerShard {
		fmt.Fprintf(w, "%-6d %-11s %12d %10.3f %10d %12d %8d %8d %9d %6d\n",
			r.Shard, r.Scheme, r.Ops, r.MopsPerSec, r.Retired, r.MaxRetired,
			r.Faults, r.UnsafeAccesses, r.Restarts, r.Migrations)
	}
	writeEpisodes(w, res.Episodes)
	a := res.Aggregate
	fmt.Fprintf(w, "aggregate: %d shards × %d workers, %d clients × batch %d, %s %s/%s mix %s\n",
		a.Shards, a.Workers, a.Clients, a.Batch, a.Structure, a.Workload, a.Schedule, a.Mix)
	fmt.Fprintf(w, "           %d ops in %s = %.3f Mops/s, request p50 %s p99 %s, peak-retired %d, faults %d, restarts %d\n",
		a.Ops, a.Elapsed.Round(time.Millisecond), a.MopsPerSec,
		fmtLatency(a.P50), fmtLatency(a.P99), a.PeakRetired, a.Faults, a.Restarts)
	if a.OpErrs > 0 || a.Migrations > 0 {
		fmt.Fprintf(w, "           op-errors %d, migrations %d\n", a.OpErrs, a.Migrations)
	}
	if a.FanoutPct > 0 {
		fmt.Fprintf(w, "fan-out:   %d clients (%d%% of fleet) via pipelined executor: %d requests, p50 %s p99 %s\n",
			a.FanoutClients, a.FanoutPct, a.FanoutReqs, fmtLatency(a.FanoutP50), fmtLatency(a.FanoutP99))
		if a.FanoutPartial > 0 || a.FanoutErrs > 0 || a.FanoutSheds > 0 {
			fmt.Fprintf(w, "           fan-out partials %d, fan-out op-errors %d, fan-out sheds %d\n",
				a.FanoutPartial, a.FanoutErrs, a.FanoutSheds)
		}
		if a.FanoutRetries > 0 || a.FanoutHedges > 0 || a.FanoutRecovered > 0 {
			fmt.Fprintf(w, "resil:     %d retries (%d requests recovered), %d hedges (%d races won)\n",
				a.FanoutRetries, a.FanoutRecovered, a.FanoutHedges, a.FanoutHedgeWins)
		}
	}
}

// writeEpisodes renders a migration episode log, one line per decision,
// shared by the service, adaptive and observability tables.
func writeEpisodes(w io.Writer, eps []adapt.Episode) {
	for _, ep := range eps {
		line := fmt.Sprintf("migration: shard %d %s → %s at %s (%s)",
			ep.Shard, ep.From, ep.To, ep.At.Round(time.Millisecond), ep.Reason)
		if ep.Err != "" {
			line += " FAILED: " + ep.Err
		}
		fmt.Fprintln(w, line)
	}
}

// runServiceExperiment is the registry's canned deployment: EBR and HP
// alternating across shards of the HP-compatible hashmap — the ERA
// trade-off made per shard. eraserve exposes the full configuration
// surface.
func runServiceExperiment(p Profile) (Result, error) {
	return RunService(ServiceConfig{
		Shards:       p.Shards,
		Schemes:      []string{"ebr", "hp"},
		Structure:    "hashmap",
		OpsPerClient: p.ops(),
		KeyRange:     p.keyRange(),
		Workload:     p.Workload,
		Schedule:     p.Schedule,
		Seed:         p.Seed,
	})
}

// runClients drives every client through ops operations from src,
// batching Batch at a time. When lats is non-nil, client c records each
// request's latency into lats[c].
func runClients(st *store.Store, src *workload.Source, cfg ServiceConfig, ops int, lats []hist.Latency) error {
	var wg sync.WaitGroup
	errs := make([]error, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := src.Thread(c, ops)
			batch := make([]store.Op, 0, cfg.Batch)
			for done := 0; done < ops; {
				batch = batch[:0]
				for len(batch) < cfg.Batch && done+len(batch) < ops {
					kind, key := stream.Next()
					batch = append(batch, store.Op{Kind: kind, Key: key})
				}
				var t0 time.Time
				if lats != nil {
					t0 = time.Now()
				}
				res, err := st.Do(batch)
				if err != nil {
					errs[c] = err
					return
				}
				if lats != nil {
					lats[c].Record(time.Since(t0))
				}
				for i, r := range res {
					if r.Err != nil {
						errs[c] = fmt.Errorf("%v(%d): %w", batch[i].Kind, batch[i].Key, r.Err)
						return
					}
				}
				done += len(batch)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanoutDoer abstracts the fan-out lane's submission path: the bare
// pipelined executor, or the resilience client wrapped around it when
// any of the Retry/Hedge/Breaker policies is on.
type fanoutDoer interface {
	Do(req workload.Req) (*exec.Result, error)
}

// execDoer adapts the raw executor to the blocking doer shape.
type execDoer struct{ ex *exec.Executor }

func (d execDoer) Do(req workload.Req) (*exec.Result, error) {
	h, err := d.ex.Submit(req)
	if err != nil {
		return nil, err
	}
	return h.Wait(), nil
}

// fanoutOutcome is the fan-out lane's measurement: requests completed,
// partial completions, tolerated per-key errors and sheds, and the
// lane's own latency histogram.
type fanoutOutcome struct {
	clients int
	reqs    uint64
	partial uint64
	errs    uint64
	sheds   uint64
	lat     hist.Latency
	err     error
}

// runFanoutLane drives the dedicated fan-out clients through the
// doer until stop closes. The point-op fleet runs concurrently on
// the same store, so the lane's tail includes cross-traffic queueing —
// which is what a service's fan-out tail means. Per-key errors and
// partial completions are absorbed and counted, never fatal: the lane
// measures the executor's service shape, and a shard mid-migration
// answering ErrShardClosed is service behaviour.
func runFanoutLane(do fanoutDoer, cfg ServiceConfig, stop <-chan struct{}) fanoutOutcome {
	n := cfg.Clients * cfg.FanoutPct / 100
	if n < 1 {
		n = 1
	}
	src, err := workload.NewReqSource(workload.ReqConfig{
		Dist:      cfg.Workload,
		KeyRange:  cfg.KeyRange,
		Mix:       workload.ReqMixFanout,
		MultiSize: cfg.FanoutKeys,
		Seed:      cfg.Seed ^ 0xfa0fa0,
	})
	if err != nil {
		return fanoutOutcome{err: err}
	}
	outs := make([]fanoutOutcome, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			stream := src.Thread(c, 1<<20)
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				res, err := do.Do(stream.Next())
				if err != nil {
					// ErrClosed races the stop signal at shutdown; anything
					// else (a shed on a healthy store) still only costs the
					// one request.
					if errors.Is(err, exec.ErrClosed) {
						return
					}
					if errors.Is(err, exec.ErrShed) {
						o.sheds++
					}
					o.errs++
					continue
				}
				o.lat.Record(time.Since(t0))
				o.reqs++
				if res.Partial() {
					o.partial++
				}
				for _, serr := range res.ShardErrs {
					if errors.Is(serr.Reason, exec.ErrShed) {
						o.sheds++
					}
				}
				for _, r := range res.Results {
					if r.Err != nil {
						o.errs++
					}
				}
			}
		}(c)
	}
	wg.Wait()
	total := fanoutOutcome{clients: n}
	for i := range outs {
		total.reqs += outs[i].reqs
		total.partial += outs[i].partial
		total.errs += outs[i].errs
		total.sheds += outs[i].sheds
		total.lat.Merge(&outs[i].lat)
	}
	return total
}

// prefillHalf inserts ~KeyRange/2 random keys through the service, so
// contains() hits about half the time — shared by every store-driving
// experiment.
func prefillHalf(st *store.Store, keyRange, batchSize int, seed uint64) error {
	pre := workload.RNG(seed ^ 0xf00d)
	batch := make([]store.Op, 0, batchSize)
	for i := 0; i < keyRange/2; i++ {
		batch = append(batch, store.Op{Kind: workload.OpInsert, Key: int64(pre.Next() % uint64(keyRange))})
		if len(batch) == batchSize || i == keyRange/2-1 {
			res, err := st.Do(batch)
			if err != nil {
				return err
			}
			for _, r := range res {
				if r.Err != nil {
					return r.Err
				}
			}
			batch = batch[:0]
		}
	}
	return nil
}

// storeProbe adapts a store's gauge tap into the telemetry sampler's
// probe shape: point i is shard i — the domain-order convention the
// Monitor and the adapt controller both rely on.
func storeProbe(st *store.Store) telemetry.Probe {
	return func() []telemetry.Point {
		gs := st.Gauges()
		pts := make([]telemetry.Point, len(gs))
		for i, g := range gs {
			pts[i] = telemetry.Point{
				Ops:          g.Ops,
				Retired:      g.Retired,
				MaxRetired:   g.MaxRetired,
				Active:       g.Active,
				MaxActive:    g.MaxActive,
				TravSteps:    g.TravSteps,
				TravRestarts: g.TravRestarts,
				GuardTrips:   g.GuardTrips,
			}
		}
		return pts
	}
}

// adaptMonitor builds the verdict monitor over the store's resolved
// shard specs: domain i is shard i, with the shard's declared robustness
// class and worker/threshold budget.
func adaptMonitor(st *store.Store, recorder *rec.Recorder) (*telemetry.Monitor, error) {
	domains := make([]telemetry.Domain, st.Shards())
	for s := range domains {
		spec, err := st.Spec(s)
		if err != nil {
			return nil, err
		}
		props, err := all.Props(spec.Scheme)
		if err != nil {
			return nil, err
		}
		domains[s] = telemetry.Domain{
			Scheme:   spec.Scheme,
			Declared: props.Robustness,
			Budget:   telemetry.Budget{Threads: spec.Workers, Threshold: spec.Threshold},
		}
	}
	mcfg := telemetry.MonitorConfig{}
	if recorder != nil {
		mcfg.OnFlip = obs.VerdictHook(recorder)
	}
	return telemetry.NewMonitor(mcfg, domains), nil
}

// attachAdapt wires the adaptive-reclamation loop onto a serving store:
// a sampler driving probe into the monitor's online classifier, and the
// controller deciding on it. The monitor is built separately
// (adaptMonitor) so a resilience client can sit between — its breaker
// feeds on the monitor's verdicts while the sampler's probe carries its
// counters. clock and recorder are optional (the observability plane's
// shared run clock and flight recorder — when given, all three loops
// stamp the same tape). Returns the started sampler and controller.
func attachAdapt(st *store.Store, acfg adapt.Config, interval time.Duration, mon *telemetry.Monitor, probe telemetry.Probe, clock *rec.Clock, recorder *rec.Recorder) (*telemetry.Sampler, *adapt.Controller, error) {
	sampler := telemetry.NewSampler(
		telemetry.Config{Interval: interval, Capacity: 4096, OnSample: mon.Observe,
			Clock: clock, Recorder: recorder},
		probe)
	acfg.Clock = clock
	acfg.Recorder = recorder
	ctl, err := adapt.New(acfg, st, mon)
	if err != nil {
		return nil, nil, err
	}
	sampler.Start()
	ctl.Start()
	return sampler, ctl, nil
}

// sampleEvery derives a telemetry tick from a traffic window: ~200
// samples per run, clamped to [200µs, 5ms].
func sampleEvery(d time.Duration) time.Duration {
	return min(max(d/200, 200*time.Microsecond), 5*time.Millisecond)
}

// RunService builds the sharded store, prefills it to half the key range,
// runs the measured closed-loop client phase — op-boxed with warmup by
// default, duration-boxed (optionally with the adaptive-reclamation
// controller live) when Duration is set — then drains the store and
// assembles the rows.
func RunService(cfg ServiceConfig) (ServiceResult, error) {
	cfg.fill()
	if cfg.Adapt != nil && cfg.Duration <= 0 {
		return ServiceResult{}, errors.New("bench: adaptive service runs need a Duration window")
	}
	specs := make([]store.ShardSpec, cfg.Shards)
	for i := range specs {
		specs[i] = store.ShardSpec{
			Scheme:    cfg.Schemes[i%len(cfg.Schemes)],
			Structure: cfg.Structure,
			Workers:   cfg.WorkersPerShard,
			NoFuse:    cfg.NoFuse,
		}
	}
	// The observability plane is opt-in: with ObsAddr set, the shards
	// stamp a flight recorder and the plane serves live throughout.
	var (
		clock    *rec.Clock
		recorder *rec.Recorder
		srv      *obs.Server
	)
	if cfg.ObsAddr != "" {
		clock = rec.NewClock()
		recorder = rec.NewRecorder(clock, 0)
	}
	st, err := store.New(store.Config{Shards: specs, KeyRange: cfg.KeyRange, Recorder: recorder})
	if err != nil {
		return ServiceResult{}, err
	}
	defer st.Close()
	defer func() { _ = srv.Close() }()
	serveObs := func(reg *obs.Registry) error {
		if cfg.ObsAddr == "" {
			return nil
		}
		srv, err = obs.Serve(cfg.ObsAddr, reg)
		return err
	}
	src, err := workload.New(workload.Config{
		Dist:     cfg.Workload,
		Schedule: cfg.Schedule,
		KeyRange: cfg.KeyRange,
		Mix:      cfg.Mix,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return ServiceResult{}, err
	}

	if err := prefillHalf(st, cfg.KeyRange, cfg.Batch, cfg.Seed); err != nil {
		return ServiceResult{}, err
	}

	var (
		ops     uint64
		opErrs  uint64
		lat     hist.Latency
		elapsed time.Duration
		before  store.Stats
		ctl     *adapt.Controller
	)
	// The fan-out lane brackets the measured phase: started right before
	// the clock, stopped right after, so its histogram covers the same
	// window as the point-op percentiles it sits beside in the table.
	var (
		fanEx    *exec.Executor
		fanResil *resil.Client
		fanSLO   *obs.SLOSet
		fanDo    fanoutDoer
		fanStop  chan struct{}
		fanDone  chan fanoutOutcome
		fanOut   fanoutOutcome
	)
	// buildFanout constructs the lane's submission path before the
	// observability plane binds, so a resilience client's counters and
	// breakers are on /metrics from the first scrape. mon may be nil
	// (non-adaptive runs): the breaker then trips on its failure EWMA
	// alone, without the verdict feed.
	buildFanout := func(mon *telemetry.Monitor) error {
		if cfg.FanoutPct <= 0 {
			return nil
		}
		// The serving lane disables the leg budget: the deployment is
		// healthy, so there is no fault to bound and no reason to tax
		// every leg with a watchdog (the chaos campaigns pay for the
		// budget where it earns its keep).
		ecfg := exec.Config{LegTimeout: -1, Clock: clock, Recorder: recorder}
		var err error
		if cfg.Retry || cfg.Hedge || cfg.Breaker {
			rcfg := resil.Config{
				Hedge:    cfg.Hedge,
				Breaker:  cfg.Breaker,
				Verdicts: mon,
				Seed:     cfg.Seed ^ 0x5e111e5,
				Clock:    clock,
				Recorder: recorder,
			}
			if !cfg.Retry {
				rcfg.MaxAttempts = 1
				rcfg.RetryBudget = -1
			}
			if fanSLO != nil {
				rcfg.OnLegLatency = fanSLO.Observe
			}
			if fanResil, err = resil.New(st, ecfg, rcfg); err != nil {
				return err
			}
			fanDo = fanResil
			return nil
		}
		if fanEx, err = exec.New(st, ecfg); err != nil {
			return err
		}
		fanDo = execDoer{fanEx}
		return nil
	}
	startFanout := func() {
		if fanDo == nil {
			return
		}
		fanStop = make(chan struct{})
		fanDone = make(chan fanoutOutcome, 1)
		go func() { fanDone <- runFanoutLane(fanDo, cfg, fanStop) }()
	}
	stopFanout := func() error {
		if fanDo == nil {
			return nil
		}
		if fanStop != nil {
			close(fanStop)
			fanOut = <-fanDone
		}
		var err error
		if fanResil != nil {
			err = fanResil.Close()
		} else {
			err = fanEx.Close()
		}
		fanDo = nil
		if fanOut.err != nil {
			return fanOut.err
		}
		return err
	}
	// Error returns between start and stop must still retire the lane —
	// the deferred stop is a no-op on the paths that stopped explicitly.
	defer func() { _ = stopFanout() }()
	if cfg.Duration > 0 {
		// Duration-boxed: no warmup (the window owns its ramp), errors
		// tolerated, optional adaptive controller live over the store.
		var sampler *telemetry.Sampler
		var mon *telemetry.Monitor
		if cfg.Adapt != nil {
			if mon, err = adaptMonitor(st, recorder); err != nil {
				return ServiceResult{}, err
			}
		}
		// The per-shard SLO objective rides the resilient lane's settled
		// leg latencies; with a monitor live, its transitions flip the
		// verdict plane's SLO dimension ("robust but slow").
		if cfg.FanoutSLO > 0 && cfg.FanoutPct > 0 && (cfg.Retry || cfg.Hedge || cfg.Breaker) {
			var hook func(shard int, breached bool)
			if mon != nil {
				hook = mon.SetSLO
			}
			fanSLO = obs.NewSLOSet(cfg.Shards, cfg.FanoutSLO, 0, clock, recorder, hook)
		}
		if err := buildFanout(mon); err != nil {
			return ServiceResult{}, err
		}
		if cfg.Adapt != nil {
			// The sampler's probe carries the lane's resilience counters
			// beside the store gauges, so the timeline join sees retries,
			// hedges and breaker positions as first-class points.
			probe := storeProbe(st)
			if fanResil != nil {
				probe = fanResil.AugmentProbe(probe)
			}
			sampler, ctl, err = attachAdapt(st, *cfg.Adapt, sampleEvery(cfg.Duration), mon, probe, clock, recorder)
			if err != nil {
				return ServiceResult{}, err
			}
		}
		if err := serveObs(&obs.Registry{Store: st, Sampler: sampler, Monitor: mon, Recorder: recorder, Resil: fanResil}); err != nil {
			return ServiceResult{}, err
		}
		fanSLO.Start(sampleEvery(cfg.Duration))
		startFanout()
		before = st.Stats()
		start := time.Now()
		ops, opErrs, lat, err = runTimedClients(st, src, cfg.Clients, cfg.Batch, start.Add(cfg.Duration), nil)
		elapsed = time.Since(start)
		if serr := stopFanout(); err == nil {
			err = serr
		}
		fanSLO.Stop()
		if ctl != nil {
			ctl.Stop()
			sampler.Stop()
		}
		if err != nil {
			return ServiceResult{}, err
		}
	} else {
		if err := buildFanout(nil); err != nil {
			return ServiceResult{}, err
		}
		if err := serveObs(&obs.Registry{Store: st, Recorder: recorder, Resil: fanResil}); err != nil {
			return ServiceResult{}, err
		}
		if warmup := cfg.OpsPerClient / 10; warmup > 0 {
			if err := runClients(st, src.Steady(cfg.Seed^0xbadcafe), cfg, warmup, nil); err != nil {
				return ServiceResult{}, err
			}
		}
		startFanout()
		before = st.Stats()
		lats := make([]hist.Latency, cfg.Clients)
		start := time.Now()
		err := runClients(st, src, cfg, cfg.OpsPerClient, lats)
		elapsed = time.Since(start)
		if serr := stopFanout(); err == nil {
			err = serr
		}
		if err != nil {
			return ServiceResult{}, err
		}
		for i := range lats {
			lat.Merge(&lats[i])
		}
		ops = uint64(cfg.Clients * cfg.OpsPerClient)
	}

	// Drain before the final read so Retired reflects the settled
	// backlog, then build rows from the post-close counters.
	if err := st.Close(); err != nil {
		return ServiceResult{}, err
	}
	after := st.Stats()

	srcCfg := src.Config()
	agg := ServiceRow{
		Shards:     cfg.Shards,
		Schemes:    cfg.Schemes,
		Structure:  cfg.Structure,
		Clients:    cfg.Clients,
		Batch:      cfg.Batch,
		Workers:    cfg.WorkersPerShard,
		Mix:        srcCfg.Mix,
		Workload:   srcCfg.Dist,
		Schedule:   srcCfg.Schedule,
		KeyRange:   cfg.KeyRange,
		Ops:        int(ops),
		Elapsed:    elapsed,
		MopsPerSec: float64(ops) / elapsed.Seconds() / 1e6,
		P50:        lat.Percentile(0.50),
		P99:        lat.Percentile(0.99),

		PeakRetired:    after.MaxRetired,
		Faults:         after.Faults,
		UnsafeAccesses: after.UnsafeAccesses,
		Restarts:       after.Restarts,
		OpErrs:         opErrs,
		Migrations:     after.Migrations,
	}
	if cfg.FanoutPct > 0 {
		agg.FanoutPct = cfg.FanoutPct
		agg.FanoutClients = fanOut.clients
		agg.FanoutReqs = fanOut.reqs
		agg.FanoutP50 = fanOut.lat.Percentile(0.50)
		agg.FanoutP99 = fanOut.lat.Percentile(0.99)
		agg.FanoutPartial = fanOut.partial
		agg.FanoutErrs = fanOut.errs
		agg.FanoutSheds = fanOut.sheds
		if fanResil != nil {
			rs := fanResil.Stats()
			agg.FanoutRetries = rs.Retries
			agg.FanoutRecovered = rs.Recovered
			agg.FanoutHedges = rs.Hedges
			agg.FanoutHedgeWins = rs.HedgeWins
		}
	}
	rows := make([]ServiceShardRow, cfg.Shards)
	for i, sh := range after.Shards {
		measured := sh.Ops
		// A migrated shard restarted its counters mid-window; its
		// current count *is* the post-swap measurement, while an
		// unswapped shard subtracts the pre-window baseline as before.
		if sh.Epoch == before.Shards[i].Epoch {
			measured = sh.Ops - before.Shards[i].Ops
		}
		rows[i] = ServiceShardRow{
			Shard:          sh.Shard,
			Scheme:         sh.Scheme,
			Ops:            measured,
			MopsPerSec:     float64(measured) / elapsed.Seconds() / 1e6,
			Retired:        sh.Retired,
			MaxRetired:     sh.MaxRetired,
			Faults:         sh.Faults,
			UnsafeAccesses: sh.UnsafeAccesses,
			Restarts:       sh.Restarts,
			Migrations:     sh.Migrations,
			Epoch:          sh.Epoch,
		}
	}
	res := ServiceResult{Aggregate: agg, PerShard: rows}
	if ctl != nil {
		res.Episodes = ctl.Episodes()
	}
	if srv != nil {
		res.ObsURL = srv.URL
	}
	return res, nil
}
