// EXP-OBS: the observability experiment. An adaptive fleet under
// staggered, self-healing delayed-release faults with the full plane
// wired — flight recorder on every subsystem, SLO monitor on the request
// path, optional live HTTP export — whose product is the causal timeline
// (fault fired → backlog inflection → verdict flip → migration → heal)
// with detection/reaction latencies, plus a recorder-on/off overhead A/B.

package bench

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/adapt"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// obsConfig is what EXP-OBS varies; the rest of its sizing is the shared
// fleet sizing (fleet.go) and the constants below.
type obsConfig struct {
	// duration is the traffic window — room for the last staggered
	// fault's full chain to close. Shard 0's fault fires duration/8 in,
	// consecutive shards' faults are spaced duration/16 apart (so the
	// incidents are separable on the tape), and each self-heals after
	// duration/2 — mid-run, so the chain closes on tape.
	duration time.Duration
	// overheadRound is one recorder-on/off A/B round's traffic window.
	overheadRound time.Duration
	seed          uint64
	obsAddr       string
}

func (p Profile) obsConfig() obsConfig {
	cfg := obsConfig{duration: time.Second, overheadRound: 120 * time.Millisecond, seed: p.Seed, obsAddr: p.ObsAddr}
	if p.Short {
		cfg.duration = 700 * time.Millisecond
		cfg.overheadRound = 100 * time.Millisecond
	}
	return cfg
}

const (
	// obsShards is the fleet size: every shard starts on the ladder's
	// bottom rung and carries its own staggered fault.
	obsShards  = 2
	obsClients = 2 * obsShards
	obsFault   = "delayed-release"
	// obsSLOTarget is the p99 service-request objective (breaches are
	// informative, not required — "robust but slow" is a state the plane
	// reports, not one the experiment engineers).
	obsSLOTarget = 50 * time.Millisecond
	// obsRecorderCapacity is the per-stripe ring size: large enough that
	// a one-second window's scan events cannot wrap the early fault fires
	// out of the ring (the default rec capacity is sized for always-on
	// deployments, where a wrapped suffix is the point; the experiment
	// wants the whole tape).
	obsRecorderCapacity = 1 << 15
	// obsOverheadRounds is how many recorder-on/off round *pairs* the
	// overhead A/B runs (each arm's best round is compared).
	obsOverheadRounds = 3
)

// ObsOverhead is the recorder-on vs recorder-off throughput A/B: the
// plane's budget is ≤5% of throughput, and this is where the claim is
// measured rather than asserted.
type ObsOverhead struct {
	Rounds          int     `json:"rounds"`
	RecorderOnMops  float64 `json:"recorder_on_mops"`
	RecorderOffMops float64 `json:"recorder_off_mops"`
	// DeltaPct is the throughput lost with the recorder on, comparing
	// each arm's best round, as a percentage of the recorder-off rate;
	// clamped at 0 (a negative delta is measurement noise, not a
	// speedup).
	DeltaPct float64 `json:"delta_pct"`
	// OK reports DeltaPct ≤ 5.
	OK bool `json:"ok"`
}

// ObsAggregate echoes the configuration and the client-side measurement.
type ObsAggregate struct {
	Shards      int           `json:"shards"`
	StartScheme string        `json:"start_scheme"`
	Ladder      []string      `json:"ladder"`
	Structure   string        `json:"structure"`
	Faults      []string      `json:"faults"`
	Workers     int           `json:"workers_per_shard"`
	Clients     int           `json:"clients"`
	Batch       int           `json:"batch"`
	KeyRange    int           `json:"key_range"`
	Duration    time.Duration `json:"duration_ns"`
	FaultAfter  time.Duration `json:"fault_after_ns"`
	Stagger     time.Duration `json:"stagger_ns"`
	Hold        time.Duration `json:"hold_ns"`
	SLOTarget   time.Duration `json:"slo_target_ns"`
	Seed        uint64        `json:"seed"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	Ops         uint64        `json:"ops"`
	OpErrs      uint64        `json:"op_errs"`
	MopsPerSec  float64       `json:"mops_per_sec"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
}

// ObsResult is the observability experiment's outcome: the joined causal
// timeline, the SLO trace, the raw event tape (for the Chrome trace),
// the evidence series, and the overhead A/B.
type ObsResult struct {
	Agg      ObsAggregate `json:"aggregate"`
	Timeline obs.Timeline `json:"timeline"`
	// Complete reports every injected fault's chain closed (fault →
	// verdict → migration → heal) — the acceptance headline.
	Complete bool             `json:"complete"`
	SLO      obs.SLOSnapshot  `json:"slo"`
	Sampler  telemetry.Health `json:"sampler"`
	// RecorderTotal/Drops account for the tape itself; nonzero drops mean
	// the ring wrapped and the timeline read a suffix.
	RecorderTotal uint64 `json:"recorder_total"`
	RecorderDrops uint64 `json:"recorder_drops"`
	// Episodes is the controller's migration log; Events the raw recorder
	// tape (stamp-ordered); Series the per-shard sampled trajectories.
	Episodes []adapt.Episode           `json:"episodes"`
	Events   []rec.Event               `json:"events"`
	Series   map[int][]telemetry.Point `json:"series,omitempty"`
	Overhead ObsOverhead               `json:"overhead"`
	// ServedAt is the live plane's URL when ObsAddr was set.
	ServedAt string `json:"served_at,omitempty"`
}

// runObs runs EXP-OBS: an adaptive fleet of identical shards on the
// ladder's bottom rung, one staggered self-healing fault per shard,
// every subsystem stamping the shared flight recorder, the SLO monitor
// fed from the live request path — then joins the tape into per-incident
// causal chains and measures the recorder's own throughput cost.
func runObs(p Profile) (Result, error) {
	cfg := p.obsConfig()
	clock := rec.NewClock()
	recorder := rec.NewRecorder(clock, obsRecorderCapacity)
	schemes := make([]string, obsShards)
	for i := range schemes {
		schemes[i] = fleetLadder[0]
	}
	// controlled: the monitor (domain i = shard i) mirrors its verdict
	// flips onto the tape — the detection half of every incident chain.
	f, err := newFleet(fleetConfig{
		schemes: schemes, structure: fleetStructure, workers: fleetWorkers,
		clients: obsClients, batch: fleetBatch, keyRange: fleetKeyRange,
		duration: cfg.duration, mix: workload.MixBalanced, workload: fleetWorkload, schedule: fleetSchedule,
		seed: cfg.seed, controlled: true, clock: clock, recorder: recorder,
	})
	if err != nil {
		return nil, err
	}
	defer f.st.Close()

	ctl, err := adapt.New(adapt.Config{
		Ladder:     fleetLadder,
		Interval:   decideEvery(cfg.duration),
		Hysteresis: adaptiveHysteresis,
		Clock:      clock,
		Recorder:   recorder,
	}, f.st, f.mon)
	if err != nil {
		return nil, err
	}
	faultAfter, stagger, hold := cfg.duration/8, cfg.duration/16, cfg.duration/2
	for s := 0; s < obsShards; s++ {
		if err := f.engine.Add(obsFault, chaos.Params{Shard: s}, chaos.Schedule{
			After:    faultAfter + time.Duration(s)*stagger,
			Hold:     hold,
			Episodes: 1,
		}); err != nil {
			return nil, err
		}
	}

	slo := obs.NewSLO(obsSLOTarget, 512, clock, recorder)
	var srv *obs.Server
	if cfg.obsAddr != "" {
		srv, err = obs.Serve(cfg.obsAddr, &obs.Registry{
			Store:    f.st,
			Sampler:  f.sampler,
			Monitor:  f.mon,
			Recorder: recorder,
			SLO:      slo,
		})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
	}

	ctl.Start()
	slo.Start(sampleEvery(cfg.duration))
	// At the deadline: freeze the policy, snapshot the evidence. The
	// faults self-heal at hold, so by then the engine is normally idle.
	series := make(map[int][]telemetry.Point, obsShards)
	t, err := f.run(func() {
		ctl.Stop()
		for s, pts := range f.series() {
			series[s] = pts
		}
	}, slo.Observe, nil)
	slo.Stop()
	if err != nil {
		return nil, err
	}

	events := recorder.Snapshot()
	tl := obs.BuildTimeline(events, series, t.elapsed)
	res := ObsResult{
		Agg: ObsAggregate{
			Shards:      obsShards,
			StartScheme: fleetLadder[0],
			Ladder:      fleetLadder,
			Structure:   fleetStructure,
			Faults:      []string{obsFault},
			Workers:     fleetWorkers,
			Clients:     obsClients,
			Batch:       fleetBatch,
			KeyRange:    fleetKeyRange,
			Duration:    cfg.duration,
			FaultAfter:  faultAfter,
			Stagger:     stagger,
			Hold:        hold,
			SLOTarget:   obsSLOTarget,
			Seed:        cfg.seed,
			Elapsed:     t.elapsed,
			Ops:         t.n,
			OpErrs:      t.errs,
			MopsPerSec:  float64(t.n) / t.elapsed.Seconds() / 1e6,
			P50:         t.lat.Percentile(0.50),
			P99:         t.lat.Percentile(0.99),
		},
		Timeline:      tl,
		Complete:      tl.Complete() && len(tl.Incidents) == obsShards,
		SLO:           slo.Snapshot(),
		Sampler:       f.sampler.Health(),
		RecorderTotal: recorder.Total(),
		RecorderDrops: recorder.Drops(),
		Episodes:      ctl.Episodes(),
		Events:        events,
		Series:        series,
	}
	if srv != nil {
		res.ServedAt = srv.URL
	}
	if res.Overhead, err = measureObsOverhead(cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// measureObsOverhead runs alternating recorder-on/recorder-off traffic
// rounds over a faultless clone of the fleet and compares each arm's
// best round. Interference on a shared box only ever subtracts
// throughput, so the per-arm maximum is the least-noise estimate of the
// arm's true rate; medians let one descheduled round swing the delta
// past the budget on small runners. Alternation (on, off, off, on, ...)
// spreads thermal and scheduler drift across both arms instead of
// donating it to whichever ran second.
func measureObsOverhead(cfg obsConfig) (ObsOverhead, error) {
	round := func(withRecorder bool, seed uint64) (float64, error) {
		var recorder *rec.Recorder
		if withRecorder {
			recorder = rec.NewRecorder(nil, obsRecorderCapacity)
		}
		st, err := store.New(store.Config{
			Shards: store.Uniform(obsShards, store.ShardSpec{
				Scheme:    fleetLadder[0],
				Structure: fleetStructure,
				Workers:   fleetWorkers,
				Threshold: fleetThreshold,
				Slots:     fleetSlots,
			}),
			KeyRange: fleetKeyRange,
			Recorder: recorder,
		})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		src, err := workload.New(workload.Config{KeyRange: fleetKeyRange, Mix: workload.MixBalanced, Seed: seed})
		if err != nil {
			return 0, err
		}
		if err := prefillHalf(st, fleetKeyRange, fleetBatch, seed); err != nil {
			return 0, err
		}
		start := time.Now()
		t := runTimedClients(st, src, obsClients, fleetBatch, start.Add(cfg.overheadRound), nil)
		return float64(t.n) / time.Since(start).Seconds() / 1e6, t.err
	}

	// One discarded warmup round: the first round after the faulted run
	// pays for cold caches and allocator growth, and whichever arm drew
	// it would eat a systematic penalty.
	if _, err := round(true, cfg.seed^0xdead); err != nil {
		return ObsOverhead{}, err
	}

	var on, off []float64
	for i := 0; i < obsOverheadRounds; i++ {
		seed := cfg.seed + uint64(i)*7919
		// Alternate within-pair order (on/off, off/on, ...): the process
		// keeps warming as rounds run, so a fixed order would donate the
		// warm-up to whichever arm always ran second.
		first := i%2 == 0
		runtime.GC()
		m1, err := round(first, seed)
		if err != nil {
			return ObsOverhead{}, err
		}
		runtime.GC()
		m2, err := round(!first, seed)
		if err != nil {
			return ObsOverhead{}, err
		}
		if first {
			on, off = append(on, m1), append(off, m2)
		} else {
			on, off = append(on, m2), append(off, m1)
		}
	}
	oh := ObsOverhead{
		Rounds:          obsOverheadRounds,
		RecorderOnMops:  slices.Max(on),
		RecorderOffMops: slices.Max(off),
	}
	if oh.RecorderOffMops > 0 {
		oh.DeltaPct = (oh.RecorderOffMops - oh.RecorderOnMops) / oh.RecorderOffMops * 100
	}
	if oh.DeltaPct < 0 {
		oh.DeltaPct = 0
	}
	oh.OK = oh.DeltaPct <= 5
	return oh, nil
}

// Gates is the acceptance bar: every injected fault's incident chain
// closed, every detection latency is finite, and the recorder's overhead
// stayed within budget.
func (res ObsResult) Gates() []Gate {
	incidents := res.Timeline.Incidents
	complete := Gate{Name: "complete", OK: res.Complete,
		Detail: fmt.Sprintf("%d incident(s) on the tape, expected one per shard (%d)", len(incidents), res.Agg.Shards)}
	detected := Gate{Name: "detection_latency_ns", OK: len(incidents) > 0, Detail: "no incidents on the tape"}
	// Backwards, so the first offending incident's detail wins.
	for i := len(incidents) - 1; i >= 0; i-- {
		in := incidents[i]
		if !in.Complete {
			complete.Detail = fmt.Sprintf("shard %d incident chain did not close (fault %q: verdict=%v migration=%v/%v heal=%v)",
				in.Shard, in.Fault, in.VerdictAt != 0, in.MigrationStartAt != 0, in.MigrationDoneAt != 0, in.HealedAt != 0)
		}
		if in.DetectionLatency < 0 {
			detected.OK = false
			detected.Detail = fmt.Sprintf("shard %d detection latency is not finite", in.Shard)
		}
	}
	return []Gate{complete, detected, {
		Name: "overhead_ok", OK: res.Overhead.OK,
		Detail: fmt.Sprintf("recorder overhead %.1f%% exceeds the 5%% budget", res.Overhead.DeltaPct),
	}}
}

// Artifacts adds the run's event tape and backlog series as a Chrome
// trace-event file (chrome://tracing, ui.perfetto.dev).
func (res ObsResult) Artifacts() []Artifact {
	return []Artifact{{Suffix: "trace", Write: func(w io.Writer) error {
		return obs.WriteChromeTrace(w, res.Events, res.Series)
	}}}
}

// WriteTable renders EXP-OBS: one line per incident chain, the
// controller's migration log, then the plane's own accounting.
func (res ObsResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-5s %-16s %10s %10s %10s %10s %-14s %8s\n",
		"shard", "fault", "fired", "detect", "react", "healed", "migration", "complete")
	for _, in := range res.Timeline.Incidents {
		det, rea := "-", "-"
		if in.DetectionLatency >= 0 {
			det = fmtLatency(in.DetectionLatency)
		}
		if in.ReactionLatency >= 0 {
			rea = fmtLatency(in.ReactionLatency)
		}
		healed := "-"
		if in.HealedAt > 0 {
			healed = in.HealedAt.Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%-5d %-16s %10s %10s %10s %10s %-14s %8v\n",
			in.Shard, in.Fault, in.FiredAt.Round(time.Millisecond),
			det, rea, healed, in.Migration, in.Complete)
	}
	writeEpisodes(w, res.Episodes)
	fmt.Fprintf(w, "flap: %d ladder moves, %d reversals, %.2f moves/s over %s\n",
		res.Timeline.LadderMoves, res.Timeline.Reversals,
		res.Timeline.FlapRatePerSec, res.Timeline.Span.Round(time.Millisecond))
	fmt.Fprintf(w, "slo: p99 %s vs target %s, breached=%v, %d breach transition(s), %d points\n",
		fmtLatency(res.SLO.P99), fmtLatency(res.SLO.Target), res.SLO.Breached,
		res.SLO.Breaches, len(res.SLO.Points))
	fmt.Fprintf(w, "recorder: %d events (%d dropped); sampler: %d ticks (%d skipped, %d late)\n",
		res.RecorderTotal, res.RecorderDrops,
		res.Sampler.Ticks, res.Sampler.SkippedTicks, res.Sampler.LateSamples)
	fmt.Fprintf(w, "overhead: recorder on %.3f Mops/s vs off %.3f Mops/s, delta %.1f%% (ok=%v)\n",
		res.Overhead.RecorderOnMops, res.Overhead.RecorderOffMops,
		res.Overhead.DeltaPct, res.Overhead.OK)
	a := res.Agg
	fmt.Fprintf(w, "aggregate: %d shards from %s on ladder %v, faults %v held %s, %s window, %d clients × batch %d, %d ops (%d errs), p99 %s\n",
		a.Shards, a.StartScheme, a.Ladder, a.Faults, a.Hold.Round(time.Millisecond),
		a.Duration, a.Clients, a.Batch, a.Ops, a.OpErrs, fmtLatency(a.P99))
	if res.ServedAt != "" {
		fmt.Fprintf(w, "           live plane served at %s\n", res.ServedAt)
	}
	fmt.Fprintf(w, "           all incident chains complete: %v\n", res.Complete)
}
