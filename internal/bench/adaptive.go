// EXP-ADAPT: the adaptive-reclamation experiment. Two identical
// single-shard fleets run the same seeded traffic under the same
// delayed-release storm (the stall-plus-retire-storm that punishes a
// non-robust scheme hardest) — one pinned to ebr (the static control),
// one with the adapt controller live on the ladder ebr → ibr → hp — and
// the audit compares what each shard's backlog did before and after the
// controller acted. It is the ERA theorem as an A/B test: the control
// demonstrates the impossibility (a non-robust scheme under a
// reclamation-critical stall grows without bound), the adaptive arm
// demonstrates the escape hatch (detect it live, migrate the shard up
// the ladder, keep the data).

package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/adapt"
	"repro/internal/chaos"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// adaptiveConfig is what EXP-ADAPT varies; the rest of its sizing is the
// shared fleet sizing (fleet.go).
type adaptiveConfig struct {
	// duration is each arm's traffic window — long enough for fault →
	// verdict → migration → post-migration window.
	duration time.Duration
	seed     uint64
}

func (p Profile) adaptiveConfig() adaptiveConfig {
	cfg := adaptiveConfig{duration: 2 * time.Second, seed: p.Seed}
	if p.Short {
		cfg.duration = time.Second
	}
	return cfg
}

const (
	adaptiveClients = 4
	adaptiveFault   = "delayed-release"
	// adaptiveHysteresis is the controller's consecutive-verdict
	// requirement.
	adaptiveHysteresis = 2
)

// decideEvery derives the controller tick from a traffic window: 32
// decisions per run, clamped to [5ms, 25ms].
func decideEvery(d time.Duration) time.Duration {
	return min(max(d/32, 5*time.Millisecond), 25*time.Millisecond)
}

// AdaptiveArm is one fleet's outcome: where its shard started and ended
// on the ladder, the audited class of its faulted window before any
// migration, the live windowed verdict at the deadline (the
// post-migration class for an arm that migrated), and the migration
// episode log behind the difference.
type AdaptiveArm struct {
	Arm         string `json:"arm"` // "static" | "adaptive"
	StartScheme string `json:"start_scheme"`
	FinalScheme string `json:"final_scheme"`
	// Faulted* audit the window from fault injection up to the first
	// migration (for arms that never migrate: up to the deadline) — the
	// "before" class. The fit stops at the migration's counter reset on
	// its own, so no explicit cut is needed.
	FaultedAudited string        `json:"faulted_audited"`
	FaultedGrowth  string        `json:"faulted_growth"`
	FaultedFit     telemetry.Fit `json:"faulted_fit"`
	// Final* is the monitor's live windowed verdict at the deadline —
	// the "after" class.
	FinalAudited string        `json:"final_audited"`
	FinalGrowth  string        `json:"final_growth"`
	FinalFit     telemetry.Fit `json:"final_fit"`
	// Migrations is the controller's episode log (empty for the static
	// arm — an adaptive arm that logged none did not adapt).
	Migrations []adapt.Episode `json:"migrations"`
	// Service-side counters: client operations completed over the
	// window, client op errors (including migration swap windows), heap
	// exhaustions and the backlog watermark of the *final* shard
	// incarnation, request latencies.
	Ops         uint64        `json:"ops"`
	OpErrs      uint64        `json:"op_errs"`
	OOMs        uint64        `json:"ooms"`
	PeakRetired uint64        `json:"peak_retired"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	// Events is the arm's chaos episode log.
	Events []chaos.Event `json:"events"`
	// Series is the shard's sampled backlog trajectory (the evidence).
	Series []telemetry.Point `json:"series,omitempty"`
}

// AdaptiveAggregate echoes the shared configuration both arms ran under.
type AdaptiveAggregate struct {
	Ladder      []string      `json:"ladder"`
	StartScheme string        `json:"start_scheme"`
	Structure   string        `json:"structure"`
	Faults      []string      `json:"faults"`
	Workers     int           `json:"workers_per_shard"`
	Clients     int           `json:"clients"`
	Batch       int           `json:"batch"`
	KeyRange    int           `json:"key_range"`
	Duration    time.Duration `json:"duration_ns"`
	FaultAfter  time.Duration `json:"fault_after_ns"`
	Mix         workload.Mix  `json:"mix"`
	Workload    string        `json:"workload"`
	Schedule    string        `json:"schedule"`
	Seed        uint64        `json:"seed"`
}

// AdaptiveResult is the experiment outcome: the static control, the
// adaptive arm, and the headline comparison.
type AdaptiveResult struct {
	Static   AdaptiveArm       `json:"static"`
	Adaptive AdaptiveArm       `json:"adaptive"`
	Agg      AdaptiveAggregate `json:"aggregate"`
	// Improved reports the headline: the adaptive arm's final audited
	// class is strictly better than the static control's.
	Improved bool `json:"improved"`
}

// runAdaptiveArm runs one fleet: a single gated shard on the ladder's
// bottom rung, seeded closed-loop clients, the storm one-shot into the
// shard an eighth of the way in, a sampler feeding the online classifier
// throughout — and, for the adaptive arm, the controller deciding on it.
// The returned class is the arm's final audited class; conclusive reports
// whether it rests on real evidence (enough samples, or an OOM) rather
// than an empty window's default.
func runAdaptiveArm(cfg adaptiveConfig, adaptive bool) (arm AdaptiveArm, class smr.RobustnessClass, conclusive bool, err error) {
	start := fleetLadder[0]
	arm = AdaptiveArm{Arm: "static", StartScheme: start}
	if adaptive {
		arm.Arm = "adaptive"
	}
	f, err := newFleet(fleetConfig{
		schemes: []string{start}, structure: fleetStructure, workers: fleetWorkers,
		clients: adaptiveClients, batch: fleetBatch, keyRange: fleetKeyRange,
		duration: cfg.duration, mix: workload.MixBalanced, workload: fleetWorkload, schedule: fleetSchedule,
		seed: cfg.seed, controlled: true,
	})
	if err != nil {
		return arm, 0, false, err
	}
	defer f.st.Close()
	var ctl *adapt.Controller
	if adaptive {
		ctl, err = adapt.New(adapt.Config{
			Ladder:     fleetLadder,
			Interval:   decideEvery(cfg.duration),
			Hysteresis: adaptiveHysteresis,
		}, f.st, f.mon)
		if err != nil {
			return arm, 0, false, err
		}
		ctl.Start()
	}
	if err := f.engine.Add(adaptiveFault, chaos.Params{Shard: 0}, chaos.OneShot(cfg.duration/8)); err != nil {
		return arm, 0, false, err
	}

	// At the deadline: freeze the policy first (no migration may race the
	// evidence reads), then snapshot the evidence.
	var stats store.Stats
	var series []telemetry.Point
	var finalVerdict telemetry.Verdict
	t, err := f.run(func() {
		if ctl != nil {
			ctl.Stop()
		}
		stats = f.st.Stats()
		series = f.series()[0]
		finalVerdict = f.mon.Verdict(0)
	}, nil, nil)
	if err != nil {
		return arm, 0, false, err
	}

	// The faulted "before" window: from the first successful injection
	// onward; the batch fit stops at a migration's counter reset on its
	// own, so it describes the pre-migration incarnation exactly.
	events := f.engine.Events()
	var faultAt time.Duration
	for _, ev := range events {
		if ev.Err == "" {
			faultAt = ev.At
			break
		}
	}
	startProps, err := all.Props(start)
	if err != nil {
		return arm, 0, false, err
	}
	faulted := telemetry.Audit(start, startProps.Robustness, series, faultAt, f.budget())
	faulted.Fit.Sanitize()

	arm.FinalScheme = stats.Shards[0].Scheme
	arm.FaultedAudited = faulted.Audited
	arm.FaultedGrowth = faulted.Fit.GrowthName
	arm.FaultedFit = faulted.Fit
	finalFit := finalVerdict.Fit
	finalFit.Sanitize()
	arm.FinalAudited = finalVerdict.Audited
	arm.FinalGrowth = finalFit.GrowthName
	arm.FinalFit = finalFit
	arm.Ops = t.n
	arm.OpErrs = t.errs
	arm.OOMs = stats.Shards[0].OOMs
	arm.PeakRetired = stats.Shards[0].MaxRetired
	arm.P50 = t.lat.Percentile(0.50)
	arm.P99 = t.lat.Percentile(0.99)
	arm.Events = events
	arm.Series = series
	arm.Migrations = []adapt.Episode{}
	if ctl != nil {
		arm.Migrations = ctl.Episodes()
	}
	finalClass := finalVerdict.AuditedClass()
	finalConclusive := !finalVerdict.Inconclusive()
	if !finalConclusive {
		// A window with no real evidence (a migration landed just
		// before the deadline, or progress stalled entirely) must not
		// masquerade as a bounded verdict in the table or the headline.
		arm.FinalAudited = "inconclusive"
	}
	// Heap exhaustion outranks any fit: the backlog measurably ate the
	// heap. For an arm that never swapped incarnations the evidence
	// covers the whole run, so both windows collapse to not-robust.
	if stats.Shards[0].OOMs > 0 && stats.Shards[0].Epoch == 0 {
		arm.FaultedAudited = smr.NotRobust.String()
		arm.FaultedGrowth = telemetry.GrowthUnbounded.String()
		arm.FinalAudited = arm.FaultedAudited
		arm.FinalGrowth = arm.FaultedGrowth
		finalClass = smr.NotRobust
		finalConclusive = true
	}
	return arm, finalClass, finalConclusive, nil
}

// runAdaptive runs the static control and the adaptive arm back to back
// on identical seeds and assembles the comparison.
func runAdaptive(p Profile) (Result, error) {
	cfg := p.adaptiveConfig()
	static, staticClass, staticOK, err := runAdaptiveArm(cfg, false)
	if err != nil {
		return nil, err
	}
	adaptiveArm, adaptiveClass, adaptiveOK, err := runAdaptiveArm(cfg, true)
	if err != nil {
		return nil, err
	}
	return AdaptiveResult{
		Static:   static,
		Adaptive: adaptiveArm,
		Agg: AdaptiveAggregate{
			Ladder:      fleetLadder,
			StartScheme: fleetLadder[0],
			Structure:   fleetStructure,
			Faults:      []string{adaptiveFault},
			Workers:     fleetWorkers,
			Clients:     adaptiveClients,
			Batch:       fleetBatch,
			KeyRange:    fleetKeyRange,
			Duration:    cfg.duration,
			FaultAfter:  cfg.duration / 8,
			Mix:         workload.MixBalanced,
			Workload:    fleetWorkload,
			Schedule:    fleetSchedule,
			Seed:        cfg.seed,
		},
		// The headline needs real evidence on both sides: a window too
		// thin to classify (migration just before the deadline, stalled
		// progress) must not default its way into an improvement claim.
		Improved: staticOK && adaptiveOK && adaptiveClass > staticClass,
	}, nil
}

// Gates is the headline: the adaptive arm's final audited class is
// strictly better than the static control's.
func (res AdaptiveResult) Gates() []Gate {
	return []Gate{{
		Name: "improved", OK: res.Improved,
		Detail: fmt.Sprintf("static arm ended %s, adaptive arm ended %s after %d migration(s)",
			res.Static.FinalAudited, res.Adaptive.FinalAudited, len(res.Adaptive.Migrations)),
	}}
}

// WriteTable renders the adaptive experiment: one line per arm, the
// adaptive arm's migration episode log, its fault episodes, then the
// headline.
func (res AdaptiveResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-9s %-7s %-7s %5s %-18s %-18s %13s %10s %8s %6s %10s\n",
		"arm", "start", "final", "moves", "faulted-audited", "final-audited",
		"peak-retired", "ops", "op-errs", "ooms", "p99")
	for _, arm := range []AdaptiveArm{res.Static, res.Adaptive} {
		fmt.Fprintf(w, "%-9s %-7s %-7s %5d %-18s %-18s %13d %10d %8d %6d %10s\n",
			arm.Arm, arm.StartScheme, arm.FinalScheme, len(arm.Migrations),
			arm.FaultedAudited+" ("+arm.FaultedGrowth+")", arm.FinalAudited+" ("+arm.FinalGrowth+")",
			arm.PeakRetired, arm.Ops, arm.OpErrs, arm.OOMs, fmtLatency(arm.P99))
	}
	writeEpisodes(w, res.Adaptive.Migrations)
	for _, ev := range res.Adaptive.Events {
		fmt.Fprintf(w, "fault: %-16s shard %d at %s\n", ev.Fault, ev.Shard, ev.At.Round(time.Millisecond))
	}
	a := res.Agg
	fmt.Fprintf(w, "aggregate: ladder %v from %s, faults %v, %s window, %d clients × batch %d, %s/%s mix %s seed %d\n",
		a.Ladder, a.StartScheme, a.Faults, a.Duration, a.Clients, a.Batch,
		a.Workload, a.Schedule, a.Mix, a.Seed)
	fmt.Fprintf(w, "           adaptive improved on static: %v\n", res.Improved)
}
