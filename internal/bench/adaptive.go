// EXP-ADAPT: the adaptive-reclamation experiment. Two single-shard
// deployments that differ only in Adapt run the same seeded traffic under
// the same delayed-release storm (the stall-plus-retire-storm that
// punishes a non-robust scheme hardest) — one pinned to ebr (the static
// control), one with the adapt controller live on the ladder ebr → ibr →
// hp — and the audit compares what each shard's backlog did before and
// after the controller acted. It is the ERA theorem as an A/B test: the
// control demonstrates the impossibility (a non-robust scheme under a
// reclamation-critical stall grows without bound), the adaptive arm
// demonstrates the escape hatch (detect it live, migrate the shard up the
// ladder, keep the data).

package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/adapt"
	"repro/internal/chaos"
	"repro/internal/smr"
)

// decideEvery derives the controller tick from a traffic window: 32
// decisions per run, clamped to [5ms, 25ms].
func decideEvery(d time.Duration) time.Duration {
	return min(max(d/32, 5*time.Millisecond), 25*time.Millisecond)
}

// ladderConfig is the controller both adaptive experiments run.
func ladderConfig(d time.Duration) *adapt.Config {
	return &adapt.Config{Ladder: fleetLadder, Interval: decideEvery(d)}
}

// adaptiveScenario is one arm: a single shard on the ladder's bottom
// rung with a survivor worker beside the one the storm parks, the storm
// one-shot an eighth of the way in, and — for the adaptive arm — the
// controller deciding on it. The window is long enough for fault →
// verdict → migration → a post-migration verdict window.
func adaptiveScenario(p Profile, adaptive bool) ServiceConfig {
	d := 2 * time.Second
	if p.Short {
		d = time.Second
	}
	cfg := ServiceConfig{
		Schemes: []string{fleetLadder[0]}, WorkersPerShard: 2, Clients: 4, Duration: d,
		Faults: []Fault{{Name: "delayed-release", Schedule: chaos.OneShot(d / 8)}},
		Seed:   p.Seed,
	}
	if adaptive {
		cfg.Adapt = ladderConfig(d)
	}
	return cfg
}

// AdaptiveResult is the experiment outcome: the static control, the
// adaptive arm, and the headline comparison.
type AdaptiveResult struct {
	Static   ServiceResult `json:"static"`
	Adaptive ServiceResult `json:"adaptive"`
	// Improved reports the headline: the adaptive arm's final verdict is
	// conclusive and strictly better than the static control's.
	Improved bool `json:"improved"`
}

// classRank orders an audited class name as smr.RobustnessClass does; an
// inconclusive verdict ranks -1.
func classRank(class string) int {
	return slices.Index([]string{smr.NotRobust.String(), smr.WeaklyRobust.String(), smr.Robust.String()}, class)
}

// runAdaptive runs the static control and the adaptive arm back to back
// on identical seeds and compares their final verdicts.
func runAdaptive(p Profile) (Result, error) {
	static, err := RunService(adaptiveScenario(p, false))
	if err != nil {
		return nil, err
	}
	adaptive, err := RunService(adaptiveScenario(p, true))
	if err != nil {
		return nil, err
	}
	// The headline needs real evidence on both sides: a window too thin
	// to classify (migration just before the deadline, stalled progress)
	// must not default its way into an improvement claim.
	s, a := classRank(static.Rows[0].Verdict), classRank(adaptive.Rows[0].Verdict)
	return AdaptiveResult{Static: static, Adaptive: adaptive, Improved: s >= 0 && a > s}, nil
}

// Gates is the headline: the adaptive arm's final verdict is strictly
// better than the static control's.
func (res AdaptiveResult) Gates() []Gate {
	return []Gate{{
		Name: "improved", OK: res.Improved,
		Detail: fmt.Sprintf("static arm ended %s, adaptive arm ended %s after %d migration(s)",
			res.Static.Rows[0].Verdict, res.Adaptive.Rows[0].Verdict, len(res.Adaptive.Episodes)),
	}}
}

// finalScheme is the scheme shard 0 ended on: its last successful
// migration's target, or the deployed one.
func finalScheme(res ServiceResult) string {
	scheme := res.Rows[0].Scheme
	for _, ep := range res.Episodes {
		if ep.Shard == 0 && ep.Err == "" {
			scheme = ep.To
		}
	}
	return scheme
}

// WriteTable renders the adaptive experiment: one line per arm, the
// adaptive arm's migration and fault logs, then the headline.
func (res AdaptiveResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-9s %-7s %-7s %5s %-18s %-18s %13s %10s %8s %6s %10s\n",
		"arm", "start", "final", "moves", "faulted-audited", "final-audited",
		"peak-retired", "ops", "op-errs", "ooms", "p99")
	for _, arm := range []struct {
		name string
		run  ServiceResult
	}{{"static", res.Static}, {"adaptive", res.Adaptive}} {
		r, a := arm.run.Rows[0], arm.run.Aggregate
		fmt.Fprintf(w, "%-9s %-7s %-7s %5d %-18s %-18s %13d %10d %8d %6d %10s\n",
			arm.name, r.Scheme, finalScheme(arm.run), len(arm.run.Episodes),
			r.Audited+" ("+r.Growth+")", r.Verdict+" ("+r.VerdictGrowth+")",
			r.PeakRetired, a.Ops, a.OpErrs, r.OOMs, fmtLatency(a.P99))
	}
	writeEpisodes(w, res.Adaptive.Episodes)
	for _, ev := range res.Adaptive.Events {
		fmt.Fprintf(w, "fault: %-16s shard %d at %s\n", ev.Fault, ev.Shard, ev.At.Round(time.Millisecond))
	}
	a := res.Adaptive.Aggregate
	fmt.Fprintf(w, "aggregate: ladder %v from %s, faults %v, %s window, %d clients × batch %d, %s/%s mix %s seed %d\n",
		fleetLadder, a.Schemes[0], faultNames(a.Faults), a.Elapsed.Round(time.Millisecond), a.Clients, a.Batch,
		a.Workload, a.Schedule, a.Mix, a.Seed)
	fmt.Fprintf(w, "           adaptive improved on static: %v\n", res.Improved)
}
