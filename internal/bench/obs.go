// EXP-OBS: the observability experiment. An adaptive, recorded
// deployment under staggered, self-healing delayed-release faults, whose
// product is the causal timeline joined from the run's tape (fault fired →
// backlog inflection → verdict flip → migration → heal) with
// detection/reaction latencies, plus a recorder-on/off overhead A/B of
// healthy deployments.

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
	"repro/internal/telemetry"
)

const (
	// obsShards is the fleet size: every shard starts on the ladder's
	// bottom rung and carries its own staggered fault.
	obsShards = 2
	// obsOverheadRounds is how many recorder-on/off round *pairs* the
	// overhead A/B runs (each arm's best round is compared).
	obsOverheadRounds = 3
)

// obsWindow is the faulted run's window — room for the last staggered
// fault's full chain to close.
func obsWindow(p Profile) time.Duration {
	if p.Short {
		return 700 * time.Millisecond
	}
	return time.Second
}

// obsScenario is the faulted run: two ebr shards under the adapt
// controller, every subsystem on the tape. Shard 0's fault fires an
// eighth of the way in, consecutive shards' faults are spaced a
// sixteenth apart (so the incidents are separable on the tape), and each
// self-heals after half the window — mid-run, so the chain closes on
// tape.
func obsScenario(p Profile) ServiceConfig {
	d := obsWindow(p)
	cfg := ServiceConfig{
		Shards: obsShards, Schemes: []string{adapt.DefaultLadder[0]}, WorkersPerShard: 2, Duration: d,
		Adapt: ladderConfig(d), Record: true, ObsAddr: p.ObsAddr, Seed: p.Seed,
	}
	for s := range obsShards {
		cfg.Faults = append(cfg.Faults, Fault{Name: "delayed-release", Shards: []int{s},
			Schedule: chaos.Schedule{After: d/8 + time.Duration(s)*d/16, Hold: d / 2, Episodes: 1}})
	}
	return cfg
}

// obsOverheadScenario is one overhead round: the faulted run's fleet,
// healthy and static, with or without the recorder.
func obsOverheadScenario(p Profile, record bool) ServiceConfig {
	d := 120 * time.Millisecond
	if p.Short {
		d = 100 * time.Millisecond
	}
	return ServiceConfig{
		Shards: obsShards, Schemes: []string{adapt.DefaultLadder[0]}, WorkersPerShard: 2, Duration: d,
		Record: record, Seed: p.Seed,
	}
}

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

// ObsResult is the observability experiment's outcome: the faulted run
// (its tape, episodes and evidence series), the causal timeline joined
// from them, and the overhead A/B.
type ObsResult struct {
	Run      ServiceResult `json:"run"`
	Timeline obs.Timeline  `json:"timeline"`
	// Complete reports every injected fault's chain closed (fault →
	// verdict → migration → heal) — the acceptance headline.
	Complete bool        `json:"complete"`
	Overhead ObsOverhead `json:"overhead"`
}

// series keys the run's per-shard backlog series by shard.
func (res ObsResult) series() map[int][]telemetry.Point {
	series := make(map[int][]telemetry.Point, len(res.Run.Rows))
	for _, r := range res.Run.Rows {
		series[r.Shard] = r.Series
	}
	return series
}

// runObs runs EXP-OBS: the faulted run, its tape joined into
// per-incident causal chains, then the recorder's own throughput cost.
func runObs(p Profile) (Result, error) {
	run, err := RunService(obsScenario(p))
	if err != nil {
		return nil, err
	}
	res := ObsResult{Run: run}
	res.Timeline = obs.BuildTimeline(run.Tape, res.series(), run.Aggregate.Elapsed)
	res.Complete = res.Timeline.Complete() && len(res.Timeline.Incidents) == obsShards
	if res.Overhead, err = measureObsOverhead(p); err != nil {
		return nil, err
	}
	return res, nil
}

// measureObsOverhead runs alternating recorder-on/recorder-off rounds and
// compares each arm's best round. Interference on a shared box only ever
// subtracts throughput, so the per-arm maximum is the least-noise
// estimate of the arm's true rate; medians let one descheduled round
// swing the delta past the budget on small runners. Alternation (on, off,
// off, on, ...) spreads thermal and scheduler drift across both arms
// instead of donating it to whichever ran second.
func measureObsOverhead(p Profile) (ObsOverhead, error) {
	round := func(record bool, seed uint64) (float64, error) {
		cfg := obsOverheadScenario(p, record)
		cfg.Seed = seed
		res, err := RunService(cfg)
		return res.Aggregate.MopsPerSec, err
	}

	// One discarded warmup round: the first round after the faulted run
	// pays for cold caches and allocator growth, and whichever arm drew
	// it would eat a systematic penalty.
	if _, err := round(true, p.Seed^0xdead); err != nil {
		return ObsOverhead{}, err
	}

	var on, off []float64
	for i := 0; i < obsOverheadRounds; i++ {
		seed := p.Seed + uint64(i)*7919
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
		oh.DeltaPct = max((oh.RecorderOffMops-oh.RecorderOnMops)/oh.RecorderOffMops*100, 0)
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
		Detail: fmt.Sprintf("%d incident(s) on the tape, expected one per shard (%d)", len(incidents), res.Run.Aggregate.Shards)}
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
		return obs.WriteChromeTrace(w, res.Run.Tape, res.series())
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
	writeEpisodes(w, res.Run.Episodes)
	fmt.Fprintf(w, "flap: %d ladder moves, %d reversals, %.2f moves/s over %s\n",
		res.Timeline.LadderMoves, res.Timeline.Reversals,
		res.Timeline.FlapRatePerSec, res.Timeline.Span.Round(time.Millisecond))
	fmt.Fprintf(w, "recorder: %d events (%d dropped)\n", len(res.Run.Tape), res.Run.TapeDrops)
	fmt.Fprintf(w, "overhead: recorder on %.3f Mops/s vs off %.3f Mops/s, delta %.1f%% (ok=%v)\n",
		res.Overhead.RecorderOnMops, res.Overhead.RecorderOffMops,
		res.Overhead.DeltaPct, res.Overhead.OK)
	a := res.Run.Aggregate
	fmt.Fprintf(w, "aggregate: %d shards from %s on ladder %v, faults %v, %s window, %d clients × batch %d, %d ops (%d errs), p99 %s\n",
		a.Shards, a.Schemes[0], adapt.DefaultLadder, faultNames(a.Faults), a.Elapsed.Round(time.Millisecond),
		a.Clients, a.Batch, a.Ops, a.OpErrs, fmtLatency(a.P99))
	if res.Run.ObsURL != "" {
		fmt.Fprintf(w, "           live plane served at %s\n", res.Run.ObsURL)
	}
	fmt.Fprintf(w, "           all incident chains complete: %v\n", res.Complete)
}
