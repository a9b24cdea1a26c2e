package bench

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/chaos"
	"repro/internal/ds/registry"
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

// ServiceConfig sizes one deployment run (eraserve; EXP-CHAOS is its
// canned call): a sharded store whose shards cycle through Schemes,
// closed-loop clients batching operations for a wall-clock window, the
// named faults injected into every shard an eighth of the way in (early,
// so most of the window is faulted — the growth fit reads the faulted
// tail), and each shard's declared robustness class (Definitions
// 5.1–5.2) audited against the backlog growth its sampled telemetry
// shows. An empty fault list is a healthy deployment.
//
// The window is duration-boxed: a client whose batch lands on a stalled
// worker blocks until the fault heals, and per-operation errors (a churn
// fault's closed shard, a live migration's swap window) are counted, not
// fatal.
type ServiceConfig struct {
	// Shards is the shard count; 0 selects one per scheme.
	Shards int
	// Schemes assigns reclamation schemes to shards, cycled when shorter
	// than Shards (so ["hp","ebr"] alternates). Empty selects
	// ["ebr","ibr","hp"], one per robustness class.
	Schemes []string
	// Structure is the per-shard set structure; empty selects "hashmap"
	// (HP-compatible, so the widest scheme set applies).
	Structure string
	// WorkersPerShard sizes each shard's pool; 0 selects one more than
	// the number of worker-parking faults: every parking fault claims a
	// worker, and the audit needs a survivor to keep the shard's churn
	// (and telemetry progress) alive.
	WorkersPerShard int
	// Clients is the closed-loop client count; 0 selects 2 × Shards.
	Clients int
	// Batch is operations per service request (≥ 2 engages the fused
	// shard path); 0 selects 16.
	Batch int
	// KeyRange is the key universe; 0 selects 2048.
	KeyRange int
	// Duration is the traffic window; 0 selects 400ms.
	Duration time.Duration
	// Faults names the faults injected (chaos registry names), each into
	// every shard.
	Faults []string
	// Mix, Workload, Schedule name the traffic shape (workload
	// registries); zero values select balanced/uniform/steady.
	Mix      Mix
	Workload string
	Schedule string
	// Seed makes every client stream deterministic.
	Seed uint64
	// Adapt, when non-nil, runs the adaptive-reclamation controller
	// (internal/adapt) over the store for the window: the sampler feeds
	// the online classifier, and shards whose scheme sits on the
	// controller's ladder are escalated/de-escalated live.
	Adapt *adapt.Config
	// FanoutPct, when positive, adds a fan-out lane beside the point-op
	// clients: FanoutPct percent of Clients (at least one goroutine)
	// drive cross-shard requests — multi-key gets, inserts, deletes plus
	// range scans and counts, workload.ReqMixFanout — through the
	// resilience client over the pipelined executor, with their own
	// p50/p99.
	FanoutPct int
	// FanoutKeys is the key count per multi-key fan-out request; 0
	// selects 8.
	FanoutKeys int
	// Retry, Hedge and Breaker switch on the lane's resilience policies
	// (internal/resil): typed-error-aware retries, p99-delay hedged
	// legs, per-shard circuit breakers. With none set the lane submits
	// each request once.
	Retry   bool
	Hedge   bool
	Breaker bool
	// FanoutSLO, when positive, runs a per-shard tail-latency objective
	// over the lane's settled leg latencies. Breach/clear transitions
	// land on the flight recorder and — with Adapt — in the telemetry
	// verdict's SLO dimension, so the controller can tell "robust but
	// slow" from "not robust".
	FanoutSLO time.Duration
	// ObsAddr, when non-empty, serves the live observability plane
	// (/metrics, /timeline, /debug/pprof/) on this address for the run:
	// shard scans, guard trips, fault fire/heal, verdict flips and
	// migrations land on one flight recorder. The bound URL is reported
	// in the result.
	ObsAddr string
}

func (cfg *ServiceConfig) fill() {
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []string{"ebr", "ibr", "hp"}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = len(cfg.Schemes)
	}
	if cfg.Structure == "" {
		cfg.Structure = fleetStructure
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = 1
		for _, f := range cfg.Faults {
			if chaos.ParksWorker(f) {
				cfg.WorkersPerShard++
			}
		}
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 2 * cfg.Shards
	}
	if cfg.Batch <= 0 {
		cfg.Batch = fleetBatch
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = fleetKeyRange
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 400 * time.Millisecond
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixBalanced
	}
	if cfg.Workload == "" {
		cfg.Workload = fleetWorkload
	}
	if cfg.Schedule == "" {
		cfg.Schedule = fleetSchedule
	}
	cfg.FanoutPct = min(cfg.FanoutPct, 100)
	if cfg.FanoutKeys <= 0 {
		cfg.FanoutKeys = 8
	}
}

// Validate rejects bad selections before anything is built, each with
// its registry's listing: schemes and ladder rungs the structure cannot
// host (Appendix E), unknown faults, key distributions and schedules,
// and lane policies without a lane. RunService calls it first; a CLI
// calls it before creating its artifact.
func (cfg ServiceConfig) Validate() error {
	cfg.fill()
	info, err := registry.Get(cfg.Structure)
	if err != nil {
		return err
	}
	schemes := cfg.Schemes
	if cfg.Adapt != nil {
		schemes = append(slices.Clip(schemes), cfg.Adapt.Ladder...)
	}
	for _, s := range schemes {
		if _, err := all.Props(s); err != nil {
			return err
		}
		if !registry.Applicable(s, info.Name) {
			return fmt.Errorf("bench: scheme %s is not applicable to %s (Appendix E)", s, info.Name)
		}
	}
	for _, f := range cfg.Faults {
		if _, err := chaos.New(f, chaos.Params{}); err != nil {
			return err
		}
	}
	if _, err := workload.NewDist(cfg.Workload, 2); err != nil {
		return err
	}
	if _, err := workload.NewSchedule(cfg.Schedule, cfg.Mix); err != nil {
		return err
	}
	if cfg.FanoutPct <= 0 && (cfg.Retry || cfg.Hedge || cfg.Breaker || cfg.FanoutSLO > 0) {
		return errors.New("bench: retry/hedge/breaker/fanout-slo shape the fan-out lane; set FanoutPct > 0")
	}
	return nil
}

// ServiceShardRow is one shard's slice of the run: its traffic over the
// window and the audit of its declared robustness class against the
// class its telemetry evidences.
type ServiceShardRow struct {
	Shard int `json:"shard"`
	// Scheme is the scheme the shard was deployed with — the one audited;
	// live migrations show in Migrations and the episode log.
	Scheme string `json:"scheme"`
	// Ops is what the shard served in the window (fan-out legs
	// included); MopsPerSec its rate.
	Ops        uint64  `json:"ops"`
	MopsPerSec float64 `json:"mops_per_sec"`
	// Retired is the settled backlog after the drain, PeakRetired the
	// backlog watermark at the deadline.
	Retired     uint64 `json:"retired"`
	PeakRetired uint64 `json:"peak_retired"`
	// Faults and UnsafeAccesses are the safety observables (accesses to
	// reclaimed memory); OOMs the failed allocations (nonzero only when
	// the backlog ate the heap).
	Faults         uint64 `json:"faults"`
	UnsafeAccesses uint64 `json:"unsafe_accesses"`
	Restarts       uint64 `json:"restarts"`
	OOMs           uint64 `json:"ooms"`
	// Migrations and Epoch record the shard's swap history.
	Migrations uint64 `json:"migrations,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
	// Declared and Audited are the robustness classes; Growth the fitted
	// backlog shape (bounded / linear-in-threads / unbounded), Slope its
	// growth per shard operation and Plateau its mean over the faulted
	// window (from the shard's first injected fault; the whole window in
	// a healthy run).
	Declared string  `json:"declared"`
	Audited  string  `json:"audited"`
	Growth   string  `json:"growth"`
	Slope    float64 `json:"slope"`
	Plateau  float64 `json:"plateau"`
	// Outcome relates audited to declared: confirmed, stronger, VIOLATED,
	// or inconclusive; Consistent is false exactly when it is VIOLATED.
	Outcome    string `json:"outcome"`
	Consistent bool   `json:"consistent"`
	// Series is the shard's sampled backlog trajectory (the evidence).
	Series []telemetry.Point `json:"series,omitempty"`
}

// ServiceRow is the run's client-side summary. P50/P99 are
// *service-request* latencies — one batched Do as seen by a client,
// queueing and live faults included.
type ServiceRow struct {
	Shards     int           `json:"shards"`
	Schemes    []string      `json:"schemes"`
	Structure  string        `json:"structure"`
	Faults     []string      `json:"faults"`
	Workers    int           `json:"workers_per_shard"`
	Clients    int           `json:"clients"`
	Batch      int           `json:"batch"`
	KeyRange   int           `json:"key_range"`
	Mix        Mix           `json:"mix"`
	Workload   string        `json:"workload"`
	Schedule   string        `json:"schedule"`
	Seed       uint64        `json:"seed"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Ops        uint64        `json:"ops"`
	MopsPerSec float64       `json:"mops_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	// OpErrs counts per-operation errors clients absorbed (shard closed
	// during churn faults or a migration swap, OOM on an exhausted shard).
	OpErrs uint64 `json:"op_errs"`
	// PeakRetired sums the shards' backlog watermarks; Migrations totals
	// the live scheme migrations.
	PeakRetired uint64 `json:"peak_retired"`
	Migrations  uint64 `json:"migrations,omitempty"`

	// Fan-out lane measurement (FanoutPct runs only), with its own
	// percentiles. FanoutPartial counts requests that completed with at
	// least one failed leg, FanoutErrs failed requests plus per-key
	// errors inside completed ones, FanoutSheds legs rejected under
	// saturation (exec.ErrShed anywhere in a result's error chain). The
	// resilience counters: retries re-submitted, requests recovered clean
	// by a retry, hedges launched, hedge races won by the duplicate.
	FanoutPct       int           `json:"fanout_pct,omitempty"`
	FanoutClients   int           `json:"fanout_clients,omitempty"`
	FanoutReqs      uint64        `json:"fanout_reqs,omitempty"`
	FanoutP50       time.Duration `json:"fanout_p50_ns,omitempty"`
	FanoutP99       time.Duration `json:"fanout_p99_ns,omitempty"`
	FanoutPartial   uint64        `json:"fanout_partial,omitempty"`
	FanoutErrs      uint64        `json:"fanout_errs,omitempty"`
	FanoutSheds     uint64        `json:"fanout_sheds,omitempty"`
	FanoutRetries   uint64        `json:"fanout_retries,omitempty"`
	FanoutRecovered uint64        `json:"fanout_recovered,omitempty"`
	FanoutHedges    uint64        `json:"fanout_hedges,omitempty"`
	FanoutHedgeWins uint64        `json:"fanout_hedge_wins,omitempty"`
}

// ServiceResult is one deployment run (BENCH_service.json from eraserve,
// BENCH_chaos.json from EXP-CHAOS): a row per shard, the fault episode
// log, the adaptive controller's migration log, and the client-side
// aggregate.
type ServiceResult struct {
	Rows      []ServiceShardRow `json:"rows"`
	Events    []chaos.Event     `json:"events"`
	Episodes  []adapt.Episode   `json:"episodes,omitempty"`
	Aggregate ServiceRow        `json:"aggregate"`
	// Consistent reports that no audit contradicted a declared class.
	Consistent bool `json:"consistent"`
	// ObsURL is the live plane's bound URL (ObsAddr runs only).
	ObsURL string `json:"obs_url,omitempty"`
}

// Gates is the -strict criterion: no audit contradicted a declared
// robustness class.
func (res ServiceResult) Gates() []Gate {
	bad := 0
	for _, r := range res.Rows {
		if !r.Consistent {
			bad++
		}
	}
	return []Gate{{
		Name: "consistent", OK: bad == 0,
		Detail: fmt.Sprintf("%d shard(s) violated their declared robustness class", bad),
	}}
}

// WriteTable renders the run: one line per shard (traffic, safety and
// audit), the fault and migration logs, then the aggregate lines.
func (res ServiceResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-5s %-6s %10s %8s %12s %6s %6s %5s %5s %-13s %-13s %-18s %9s %9s %s\n",
		"shard", "scheme", "ops", "Mops/s", "peak-retired", "faults", "unsafe", "ooms", "moves",
		"declared", "audited", "growth", "slope/op", "plateau", "outcome")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-5d %-6s %10d %8.3f %12d %6d %6d %5d %5d %-13s %-13s %-18s %9.4f %9.1f %s\n",
			r.Shard, r.Scheme, r.Ops, r.MopsPerSec, r.PeakRetired, r.Faults, r.UnsafeAccesses, r.OOMs,
			r.Migrations, r.Declared, r.Audited, r.Growth, r.Slope, r.Plateau, r.Outcome)
	}
	for _, ev := range res.Events {
		line := fmt.Sprintf("fault: %-16s shard %d episode %d at %s", ev.Fault, ev.Shard, ev.Episode, ev.At.Round(time.Millisecond))
		if ev.Err != "" {
			line += " FAILED: " + ev.Err
		} else if ev.Healed > 0 {
			line += fmt.Sprintf(" healed at %s", ev.Healed.Round(time.Millisecond))
		}
		fmt.Fprintln(w, line)
	}
	writeEpisodes(w, res.Episodes)
	a := res.Aggregate
	fmt.Fprintf(w, "aggregate: %d shards × %d workers (%s), %d clients × batch %d, faults %v, %s/%s mix %s seed %d\n",
		a.Shards, a.Workers, a.Structure, a.Clients, a.Batch, a.Faults, a.Workload, a.Schedule, a.Mix, a.Seed)
	fmt.Fprintf(w, "           %d ops (%d op-errors) in %s = %.3f Mops/s, request p50 %s p99 %s, peak-retired %d, migrations %d, verdicts consistent: %v\n",
		a.Ops, a.OpErrs, a.Elapsed.Round(time.Millisecond), a.MopsPerSec, fmtLatency(a.P50), fmtLatency(a.P99),
		a.PeakRetired, a.Migrations, res.Consistent)
	if a.FanoutPct > 0 {
		fmt.Fprintf(w, "fan-out:   %d clients (%d%% of fleet): %d requests, p50 %s p99 %s, %d partial, %d op-errors, %d sheds\n",
			a.FanoutClients, a.FanoutPct, a.FanoutReqs, fmtLatency(a.FanoutP50), fmtLatency(a.FanoutP99),
			a.FanoutPartial, a.FanoutErrs, a.FanoutSheds)
		fmt.Fprintf(w, "resil:     %d retries (%d requests recovered), %d hedges (%d races won)\n",
			a.FanoutRetries, a.FanoutRecovered, a.FanoutHedges, a.FanoutHedgeWins)
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

// runChaosExperiment is the registry's canned audit (EXP-CHAOS): one
// shard per robustness class, a stall in each, verdicts from the faulted
// telemetry. eraserve exposes the full deployment surface.
func runChaosExperiment(p Profile) (Result, error) {
	return RunService(ServiceConfig{Faults: []string{"stall"}, Seed: p.Seed})
}

// fanoutLane is the run's cross-shard traffic: dedicated clients drive
// ReqMixFanout requests through the resilience client until the
// deadline, beside the point-op clients on the same store — so the
// lane's tail includes cross-traffic queueing, which is what a
// service's fan-out tail means. Failed requests, partial completions and
// per-key errors are counted, never fatal.
type fanoutLane struct {
	client  *resil.Client
	slo     *obs.SLOSet // nil without FanoutSLO
	src     *workload.ReqSource
	clients int
	tick    time.Duration
	laneTally
	closeErr error
}

// laneTally is one lane client's (or, merged, the lane's) measurement.
type laneTally struct {
	reqs, partial, errs, sheds uint64
	lat                        hist.Latency
}

func newFanoutLane(f *fleet, cfg ServiceConfig) (*fanoutLane, error) {
	src, err := workload.NewReqSource(workload.ReqConfig{
		Dist: cfg.Workload, KeyRange: cfg.KeyRange, Mix: workload.ReqMixFanout,
		MultiSize: cfg.FanoutKeys, Seed: cfg.Seed ^ 0xfa0fa0,
	})
	if err != nil {
		return nil, err
	}
	l := &fanoutLane{src: src, clients: max(cfg.Clients*cfg.FanoutPct/100, 1), tick: sampleEvery(cfg.Duration)}
	clock, recorder := f.cfg.clock, f.cfg.recorder
	if cfg.FanoutSLO > 0 {
		var hook func(shard int, breached bool)
		if f.mon != nil {
			hook = f.mon.SetSLO
		}
		l.slo = obs.NewSLOSet(f.st.Shards(), cfg.FanoutSLO, 0, clock, recorder, hook)
	}
	// A healthy deployment has no fault to bound, so its lane skips the
	// leg budget and the watchdog it puts on every leg; a faulted one keeps
	// the default budget, so stalled legs fail typed (and retry, and trip
	// breakers) instead of blocking until the heal.
	ecfg := exec.Config{Verdicts: f.mon, Clock: clock, Recorder: recorder}
	if len(cfg.Faults) == 0 {
		ecfg.LegTimeout = -1
	}
	rcfg := resil.Config{
		Hedge: cfg.Hedge, Breaker: cfg.Breaker,
		Seed: cfg.Seed ^ 0x5e111e5, Clock: clock, Recorder: recorder,
	}
	if !cfg.Retry {
		rcfg.MaxAttempts, rcfg.RetryBudget = 1, -1
	}
	if l.slo != nil {
		rcfg.OnLegLatency = l.slo.Observe
	}
	if l.client, err = resil.New(f.st, ecfg, rcfg); err != nil {
		return nil, err
	}
	return l, nil
}

// run drives the lane until deadline, then closes its client — before
// the fleet drains the store underneath it.
func (l *fanoutLane) run(deadline time.Time) {
	l.slo.Start(l.tick)
	tallies := make([]laneTally, l.clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(o *laneTally) {
			defer wg.Done()
			stream := l.src.Thread(c, 1<<20)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				res, err := l.client.Do(stream.Next())
				if err != nil {
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
		}(&tallies[c])
	}
	wg.Wait()
	l.slo.Stop()
	for i := range tallies {
		l.reqs += tallies[i].reqs
		l.partial += tallies[i].partial
		l.errs += tallies[i].errs
		l.sheds += tallies[i].sheds
		l.lat.Merge(&tallies[i].lat)
	}
	l.closeErr = l.client.Close()
}

// RunService builds a gated store with Schemes cycled across Shards,
// prefills it to half the key range, runs closed-loop traffic (and the
// fan-out lane) for the window while the chaos engine injects Faults
// into every shard and — with Adapt — the controller migrates shards
// live, samples per-shard backlog telemetry throughout, then drains the
// store and assembles one row per shard: its traffic, safety counters,
// and the audit of its declared robustness class against the fitted
// growth of its faulted window.
func RunService(cfg ServiceConfig) (ServiceResult, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return ServiceResult{}, err
	}
	schemes := make([]string, cfg.Shards)
	for i := range schemes {
		schemes[i] = cfg.Schemes[i%len(cfg.Schemes)]
	}
	fc := fleetConfig{
		schemes: schemes, structure: cfg.Structure, workers: cfg.WorkersPerShard,
		clients: cfg.Clients, batch: cfg.Batch, keyRange: cfg.KeyRange, duration: cfg.Duration,
		mix: cfg.Mix, workload: cfg.Workload, schedule: cfg.Schedule, seed: cfg.Seed,
		controlled: cfg.Adapt != nil,
	}
	if cfg.ObsAddr != "" {
		fc.clock = rec.NewClock()
		fc.recorder = rec.NewRecorder(fc.clock, 0)
	}
	f, err := newFleet(fc)
	if err != nil {
		return ServiceResult{}, err
	}
	defer f.st.Close()
	for _, name := range cfg.Faults {
		for s := range schemes {
			if err := f.engine.Add(name, chaos.Params{Shard: s}, chaos.OneShot(cfg.Duration/8)); err != nil {
				return ServiceResult{}, err
			}
		}
	}

	reg := &obs.Registry{Store: f.st, Sampler: f.sampler, Monitor: f.mon, Recorder: fc.recorder}
	var lane *fanoutLane
	var beside func(time.Time)
	if cfg.FanoutPct > 0 {
		if lane, err = newFanoutLane(f, cfg); err != nil {
			return ServiceResult{}, err
		}
		defer lane.client.Close()
		// The sampler carries the lane's resilience counters beside the
		// store gauges, so the timeline join sees retries, hedges and
		// shard health as first-class points.
		f.probe = lane.client.AugmentProbe(f.probe)
		reg.Exec, reg.Resil = lane.client.Executor(), lane.client
		beside = lane.run
	}
	var obsURL string
	if cfg.ObsAddr != "" {
		srv, err := obs.Serve(cfg.ObsAddr, reg)
		if err != nil {
			return ServiceResult{}, err
		}
		defer srv.Close()
		obsURL = srv.URL
	}
	var ctl *adapt.Controller
	if cfg.Adapt != nil {
		acfg := *cfg.Adapt
		acfg.Clock, acfg.Recorder = fc.clock, fc.recorder
		if ctl, err = adapt.New(acfg, f.st, f.mon); err != nil {
			return ServiceResult{}, err
		}
		ctl.Start()
	}

	before := f.st.Stats()
	var stats store.Stats
	var series [][]telemetry.Point
	t, err := f.run(func() {
		if ctl != nil {
			ctl.Stop()
		}
		stats = f.st.Stats()
		series = f.series()
	}, nil, beside)
	if err == nil && lane != nil {
		err = lane.closeErr
	}
	if err != nil {
		return ServiceResult{}, err
	}
	after := f.st.Stats()

	srcCfg := f.src.Config()
	rate := func(ops uint64) float64 { return float64(ops) / t.elapsed.Seconds() / 1e6 }
	res := ServiceResult{
		Events:     f.engine.Events(),
		Consistent: true,
		ObsURL:     obsURL,
		Aggregate: ServiceRow{
			Shards: cfg.Shards, Schemes: cfg.Schemes, Structure: cfg.Structure, Faults: cfg.Faults,
			Workers: cfg.WorkersPerShard, Clients: cfg.Clients, Batch: cfg.Batch, KeyRange: cfg.KeyRange,
			Mix: srcCfg.Mix, Workload: srcCfg.Dist, Schedule: srcCfg.Schedule, Seed: cfg.Seed,
			Elapsed: t.elapsed, Ops: t.ops, MopsPerSec: rate(t.ops), OpErrs: t.opErrs,
			P50: t.lat.Percentile(0.50), P99: t.lat.Percentile(0.99),
			PeakRetired: stats.MaxRetired, Migrations: after.Migrations,
		},
	}
	if ctl != nil {
		res.Episodes = ctl.Episodes()
	}
	if lane != nil {
		a, rs := &res.Aggregate, lane.client.Stats()
		a.FanoutPct, a.FanoutClients, a.FanoutReqs = cfg.FanoutPct, lane.clients, lane.reqs
		a.FanoutP50, a.FanoutP99 = lane.lat.Percentile(0.50), lane.lat.Percentile(0.99)
		a.FanoutPartial, a.FanoutErrs, a.FanoutSheds = lane.partial, lane.errs, lane.sheds
		a.FanoutRetries, a.FanoutRecovered = rs.Retries, rs.Recovered
		a.FanoutHedges, a.FanoutHedgeWins = rs.Hedges, rs.HedgeWins
	}
	for s, scheme := range schemes {
		props, err := all.Props(scheme)
		if err != nil {
			return ServiceResult{}, err
		}
		// Fit only the faulted window: from the first episode injected
		// into this shard onward.
		var from time.Duration
		for _, ev := range res.Events {
			if ev.Shard == s && ev.Err == "" {
				from = ev.At
				break
			}
		}
		v := telemetry.Audit(scheme, props.Robustness, series[s], from, f.budget())
		v.Fit.Sanitize()
		sh, pre := after.Shards[s], before.Shards[s]
		// A reopened or migrated shard restarted its counters mid-window:
		// its current count is the post-swap measurement.
		ops := sh.Ops
		if sh.Epoch == pre.Epoch {
			ops -= pre.Ops
		}
		row := ServiceShardRow{
			Shard: s, Scheme: scheme, Ops: ops, MopsPerSec: rate(ops),
			Retired: sh.Retired, PeakRetired: stats.Shards[s].MaxRetired,
			Faults: sh.Faults, UnsafeAccesses: sh.UnsafeAccesses, Restarts: sh.Restarts,
			OOMs: stats.Shards[s].OOMs, Migrations: sh.Migrations, Epoch: sh.Epoch,
			Declared: v.Declared, Audited: v.Audited, Growth: v.Fit.GrowthName,
			Slope: v.Fit.Slope, Plateau: v.Fit.Plateau, Outcome: v.Outcome,
			Consistent: v.Consistent(), Series: series[s],
		}
		// Heap exhaustion is stronger evidence than any fit: the backlog
		// literally ran the shard out of memory.
		if row.OOMs > 0 {
			row.Audited, row.Growth = "not-robust", "unbounded"
			row.Consistent = row.Declared == "not-robust"
			row.Outcome = "VIOLATED"
			if row.Consistent {
				row.Outcome = "confirmed"
			}
		}
		res.Consistent = res.Consistent && row.Consistent
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
