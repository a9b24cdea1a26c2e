package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// ChaosConfig sizes the chaos experiment (EXP-CHAOS): a sharded store
// with one shard per scheme under audit, closed-loop client traffic for a
// fixed wall-clock window, fault injection an eighth of the way in (early,
// so most of the window is faulted — the growth fit reads the faulted
// tail), and a telemetry sampler whose series are fitted into per-scheme
// robustness verdicts. cmd/erachaos exposes every field as a flag.
type ChaosConfig struct {
	// Schemes get one shard each, in order; the default trio spans the
	// three robustness classes (ebr not-robust, ibr weakly-robust, hp
	// robust).
	Schemes []string
	// Structure is the per-shard set structure; empty selects "hashmap"
	// (HP-compatible, so the widest scheme set applies).
	Structure string
	// WorkersPerShard sizes each shard's pool; 0 selects one more than
	// the number of stall-family faults (min 2) — every parking fault
	// claims a worker and the audit needs a survivor to keep the shard's
	// churn (and telemetry progress) alive.
	WorkersPerShard int
	// Clients is the closed-loop client count; 0 selects 2 × shards.
	Clients int
	// Batch is operations per service request; 0 selects 16.
	Batch int
	// KeyRange is the key universe; 0 selects 2048.
	KeyRange int
	// Duration is the traffic window; 0 selects 400ms.
	Duration time.Duration
	// Faults names the faults injected (chaos registry names); each is
	// applied to every shard. Empty selects ["stall"] — the
	// reclamation-critical stall that separates the robustness classes.
	Faults []string
	// Mix, Workload, Schedule name the traffic shape (workload
	// registries); zero values select balanced/uniform/steady.
	Mix      Mix
	Workload string
	Schedule string
	// Seed makes client streams deterministic.
	Seed uint64
	// ObsAddr, when non-empty, serves the live observability plane
	// (/metrics, /timeline, /debug/pprof/) on this address for the
	// duration of the run; shard scans, guard trips, and every fault
	// fire/heal land on a shared flight recorder the /timeline endpoint
	// exposes. The bound URL is reported in the result.
	ObsAddr string
}

func (cfg *ChaosConfig) fill() {
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []string{"ebr", "ibr", "hp"}
	}
	if cfg.Structure == "" {
		cfg.Structure = fleetStructure
	}
	if len(cfg.Faults) == 0 {
		cfg.Faults = []string{"stall"}
	}
	if cfg.WorkersPerShard <= 0 {
		parks := 0
		for _, f := range cfg.Faults {
			if chaos.ParksWorker(f) {
				parks++
			}
		}
		cfg.WorkersPerShard = max(parks+1, 2)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 2 * len(cfg.Schemes)
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
}

// ChaosRow is one shard's audit: the scheme's declared robustness class
// against the class its telemetry evidences.
type ChaosRow struct {
	Shard    int    `json:"shard"`
	Scheme   string `json:"scheme"`
	Declared string `json:"declared"`
	Audited  string `json:"audited"`
	// Growth is the fitted backlog shape (bounded / linear-in-threads /
	// unbounded).
	Growth string `json:"growth"`
	// Slope is backlog growth per shard operation over the faulted
	// window; Plateau the window's mean backlog.
	Slope   float64 `json:"slope"`
	Plateau float64 `json:"plateau"`
	// PeakRetired is the shard's whole-run backlog watermark.
	PeakRetired uint64 `json:"peak_retired"`
	// Ops is the shard's total served operations; OOMs its failed
	// allocations (nonzero only when the backlog ate the heap).
	Ops  uint64 `json:"ops"`
	OOMs uint64 `json:"ooms"`
	// Outcome relates audited to declared: confirmed, stronger,
	// VIOLATED, or inconclusive.
	Outcome string `json:"outcome"`
	// Consistent is false exactly when Outcome is VIOLATED.
	Consistent bool `json:"consistent"`
	// Series is the shard's sampled backlog trajectory (the evidence).
	Series []telemetry.Point `json:"series,omitempty"`
}

// ChaosAggregate is the run's service-level summary: what the clients
// experienced while the faults were live.
type ChaosAggregate struct {
	Shards   int           `json:"shards"`
	Schemes  []string      `json:"schemes"`
	Faults   []string      `json:"faults"`
	Clients  int           `json:"clients"`
	Batch    int           `json:"batch"`
	Workers  int           `json:"workers_per_shard"`
	KeyRange int           `json:"key_range"`
	Mix      Mix           `json:"mix"`
	Workload string        `json:"workload"`
	Schedule string        `json:"schedule"`
	Seed     uint64        `json:"seed"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Ops      uint64        `json:"ops"`
	// OpErrs counts per-operation errors clients absorbed (shard closed
	// during churn faults, OOM on an exhausted shard, ...).
	OpErrs uint64 `json:"op_errs"`
	// P50/P99 are service-request latencies with the faults live.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// ChaosResult is the chaos experiment's outcome: one audited row per
// scheme shard, the fault episode log, and the client-side aggregate.
type ChaosResult struct {
	Rows   []ChaosRow     `json:"rows"`
	Events []chaos.Event  `json:"events"`
	Agg    ChaosAggregate `json:"aggregate"`
	// Consistent reports that no audit contradicted a declared class.
	Consistent bool `json:"consistent"`
	// ObsURL is the live plane's bound URL (ObsAddr runs only).
	ObsURL string `json:"obs_url,omitempty"`
}

// Gates is the -strict criterion: no audit contradicted a declared
// robustness class.
func (res ChaosResult) Gates() []Gate {
	bad := 0
	for _, r := range res.Rows {
		if !r.Consistent {
			bad++
		}
	}
	return []Gate{{
		Name: "consistent", OK: bad == 0,
		Detail: fmt.Sprintf("%d scheme(s) violated their declared robustness class", bad),
	}}
}

// WriteTable renders the chaos audit: one verdict line per scheme shard,
// the fault episode log, then the client-side aggregate.
func (res ChaosResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-6s %-11s %-13s %-13s %-18s %9s %9s %13s %10s %6s %s\n",
		"shard", "scheme", "declared", "audited", "growth", "slope/op", "plateau", "peak-retired", "ops", "ooms", "outcome")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-6d %-11s %-13s %-13s %-18s %9.4f %9.1f %13d %10d %6d %s\n",
			r.Shard, r.Scheme, r.Declared, r.Audited, r.Growth,
			r.Slope, r.Plateau, r.PeakRetired, r.Ops, r.OOMs, r.Outcome)
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
	a := res.Agg
	fmt.Fprintf(w, "aggregate: %d shards × %d workers, %d clients × batch %d, faults %v, %s/%s mix %s seed %d\n",
		a.Shards, a.Workers, a.Clients, a.Batch, a.Faults, a.Workload, a.Schedule, a.Mix, a.Seed)
	fmt.Fprintf(w, "           %d ops (%d op-errors) in %s, request p50 %s p99 %s, verdicts consistent: %v\n",
		a.Ops, a.OpErrs, a.Elapsed.Round(time.Millisecond), fmtLatency(a.P50), fmtLatency(a.P99), res.Consistent)
}

// runChaosExperiment is the registry's canned audit: one shard per
// robustness class, a stall in each, verdicts from the faulted telemetry.
// erachaos exposes the full fault/schedule surface.
func runChaosExperiment(p Profile) (Result, error) {
	return RunChaos(ChaosConfig{Seed: p.Seed})
}

// RunChaos builds a gated store with one shard per scheme, runs
// closed-loop traffic for the configured window while the chaos engine
// injects the configured faults into every shard, samples per-shard
// backlog telemetry throughout, and audits each scheme's declared
// robustness class against the fitted growth of its faulted window.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg.fill()
	fc := fleetConfig{
		schemes: cfg.Schemes, structure: cfg.Structure, workers: cfg.WorkersPerShard,
		clients: cfg.Clients, batch: cfg.Batch, keyRange: cfg.KeyRange, duration: cfg.Duration,
		mix: cfg.Mix, workload: cfg.Workload, schedule: cfg.Schedule, seed: cfg.Seed,
	}
	// With ObsAddr set, the plane serves live throughout: shard scans and
	// guard trips from the store, fire/heal events from the engine, all
	// on one shared run clock.
	if cfg.ObsAddr != "" {
		fc.clock = rec.NewClock()
		fc.recorder = rec.NewRecorder(fc.clock, 0)
	}
	f, err := newFleet(fc)
	if err != nil {
		return ChaosResult{}, err
	}
	defer f.st.Close()

	var obsURL string
	if cfg.ObsAddr != "" {
		srv, err := obs.Serve(cfg.ObsAddr, &obs.Registry{Store: f.st, Sampler: f.sampler, Recorder: fc.recorder})
		if err != nil {
			return ChaosResult{}, err
		}
		defer srv.Close()
		obsURL = srv.URL
	}
	for _, name := range cfg.Faults {
		for s := range cfg.Schemes {
			if err := f.engine.Add(name, chaos.Params{Shard: s}, chaos.OneShot(cfg.Duration/8)); err != nil {
				return ChaosResult{}, err
			}
		}
	}

	var stats store.Stats
	var series [][]telemetry.Point
	t, err := f.run(func() {
		stats = f.st.Stats()
		series = f.series()
	}, nil)
	if err != nil {
		return ChaosResult{}, err
	}

	events := f.engine.Events()
	srcCfg := f.src.Config()
	res := ChaosResult{
		Events:     events,
		Consistent: true,
		ObsURL:     obsURL,
		Agg: ChaosAggregate{
			Shards:   len(cfg.Schemes),
			Schemes:  cfg.Schemes,
			Faults:   cfg.Faults,
			Clients:  cfg.Clients,
			Batch:    cfg.Batch,
			Workers:  cfg.WorkersPerShard,
			KeyRange: cfg.KeyRange,
			Mix:      srcCfg.Mix,
			Workload: srcCfg.Dist,
			Schedule: srcCfg.Schedule,
			Seed:     cfg.Seed,
			Elapsed:  t.elapsed,
			Ops:      t.ops,
			OpErrs:   t.opErrs,
			P50:      t.lat.Percentile(0.50),
			P99:      t.lat.Percentile(0.99),
		},
	}
	for s, scheme := range cfg.Schemes {
		props, err := all.Props(scheme)
		if err != nil {
			return ChaosResult{}, err
		}
		// Fit only the faulted window: from the first episode injected
		// into this shard onward.
		var from time.Duration
		for _, ev := range events {
			if ev.Shard == s && ev.Err == "" {
				from = ev.At
				break
			}
		}
		points := series[s]
		v := telemetry.Audit(scheme, props.Robustness, points, from, f.budget())
		v.Fit.Sanitize()
		row := ChaosRow{
			Shard:       s,
			Scheme:      scheme,
			Declared:    v.Declared,
			Audited:     v.Audited,
			Growth:      v.Fit.GrowthName,
			Slope:       v.Fit.Slope,
			Plateau:     v.Fit.Plateau,
			PeakRetired: stats.Shards[s].MaxRetired,
			Ops:         stats.Shards[s].Ops,
			OOMs:        stats.Shards[s].OOMs,
			Outcome:     v.Outcome,
			Consistent:  v.Consistent(),
			Series:      points,
		}
		// Heap exhaustion is stronger evidence than any fit: the backlog
		// literally ran the shard out of memory.
		if row.OOMs > 0 {
			row.Audited = "not-robust"
			row.Growth = "unbounded"
			if row.Declared == "not-robust" {
				row.Outcome = "confirmed"
				row.Consistent = true
			} else {
				row.Outcome = "VIOLATED"
				row.Consistent = false
			}
		}
		if !row.Consistent {
			res.Consistent = false
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
