// Package obs is the unified observability plane over the sharded
// service: one flight recorder (internal/obs/rec) that every subsystem
// stamps its events onto, a metrics registry that renders the store's
// live gauges and verdicts as Prometheus text, an opt-in HTTP server
// exposing /metrics, /timeline and pprof mid-run, and a causality
// reporter that joins the recorded streams into per-shard incident
// timelines (fault fired → backlog inflection → verdict flip → migration
// → heal) with detection/reaction latencies and a flap-rate metric.
//
// The paper's robustness claim (Definitions 5.1–5.2) is a claim about
// trajectories; this package is what makes the repository's trajectories
// observable while they happen instead of reconstructable afterwards.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/obs/rec"
	"repro/internal/resil"
	"repro/internal/smr"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Registry bundles the live sources the exporters read. Every field is
// optional except Store; nil fields simply render nothing.
type Registry struct {
	Store    *store.Store
	Sampler  *telemetry.Sampler
	Monitor  *telemetry.Monitor
	Recorder *rec.Recorder
	Exec     *exec.Executor
	Resil    *resil.Client
}

// VerdictHook adapts the flight recorder into a telemetry.NewMonitor
// onFlip hook: every conclusive audited-class change becomes a
// KindVerdict event (A = new class, B = previous class,
// Label = "scheme:old→new"). The A<B ordering is what the causality
// reporter keys detection on: a worsening flip is a detection.
func VerdictHook(r *rec.Recorder) func(domain int, old, new smr.RobustnessClass, v telemetry.Verdict) {
	return func(domain int, old, new smr.RobustnessClass, v telemetry.Verdict) {
		r.Record(rec.KindVerdict, domain, 0, uint64(new), uint64(old),
			v.Scheme+":"+old.String()+"→"+new.String())
	}
}

// metric writes one Prometheus-text metric family: a HELP/TYPE header
// followed by the sample lines the caller appends through add.
type metric struct {
	w    io.Writer
	name string
	err  error
}

func (r *Registry) family(w io.Writer, name, typ, help string) *metric {
	m := &metric{w: w, name: name}
	_, m.err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return m
}

func (m *metric) add(labels string, v float64) {
	if m.err != nil {
		return
	}
	if labels == "" {
		_, m.err = fmt.Fprintf(m.w, "%s %g\n", m.name, v)
		return
	}
	_, m.err = fmt.Fprintf(m.w, "%s{%s} %g\n", m.name, labels, v)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// WriteMetrics renders the registry as Prometheus text exposition
// format. Safe to call while the store serves and migrates: the gauge
// and stat snapshots are taken under the store's locks, so every
// per-shard row describes exactly one shard incarnation — a migration
// in flight shows either the outgoing or the incoming scheme, never a
// blend.
func (r *Registry) WriteMetrics(w io.Writer) error {
	// Shard identity first: the current-scheme label is the migration
	// observable ("which rung is shard 3 on right now").
	stats := r.Store.Stats()
	info := r.family(w, "era_shard_info", "gauge",
		"Shard identity: current scheme and structure (value is constant 1).")
	for _, s := range stats.Shards {
		info.add(fmt.Sprintf(`shard="%d",scheme="%s",structure="%s"`,
			s.Shard, escapeLabel(s.Scheme), escapeLabel(s.Structure)), 1)
	}
	if info.err != nil {
		return info.err
	}

	// Every ShardGauges field, under the same lock discipline the
	// telemetry sampler uses.
	gauges := r.Store.Gauges()
	for _, g := range []struct {
		name, typ, help string
		val             func(store.ShardGauges) float64
	}{
		{"era_shard_ops_total", "counter", "Cumulative operations served by the shard incarnation.",
			func(g store.ShardGauges) float64 { return float64(g.Ops) }},
		{"era_shard_retired", "gauge", "Current retired-but-unreclaimed backlog (Definitions 5.1-5.2).",
			func(g store.ShardGauges) float64 { return float64(g.Retired) }},
		{"era_shard_retired_max", "gauge", "Historical backlog watermark.",
			func(g store.ShardGauges) float64 { return float64(g.MaxRetired) }},
		{"era_shard_active", "gauge", "Current allocated-and-not-retired node count.",
			func(g store.ShardGauges) float64 { return float64(g.Active) }},
		{"era_shard_active_max", "gauge", "The paper's max_active - the robustness bound's budget.",
			func(g store.ShardGauges) float64 { return float64(g.MaxActive) }},
		{"era_shard_trav_steps_total", "counter", "Cumulative traversal steps (node visits).",
			func(g store.ShardGauges) float64 { return float64(g.TravSteps) }},
		{"era_shard_trav_restarts_total", "counter", "Cumulative traversal restarts.",
			func(g store.ShardGauges) float64 { return float64(g.TravRestarts) }},
		{"era_shard_guard_trips_total", "counter", "Operations aborted at the traversal step budget.",
			func(g store.ShardGauges) float64 { return float64(g.GuardTrips) }},
	} {
		fam := r.family(w, g.name, g.typ, g.help)
		for _, sg := range gauges {
			fam.add(fmt.Sprintf(`shard="%d"`, sg.Shard), g.val(sg))
		}
		if fam.err != nil {
			return fam.err
		}
	}

	// The slower ShardStats-only counters: faults, safety, incarnation
	// history and the worst-op traversal steps (not in the gauge tap).
	for _, g := range []struct {
		name, typ, help string
		val             func(store.ShardStats) float64
	}{
		{"era_shard_epoch", "gauge", "Shard slot incarnation count (reopen or migration swaps).",
			func(s store.ShardStats) float64 { return float64(s.Epoch) }},
		{"era_shard_migrations_total", "counter", "Completed live scheme migrations of the slot.",
			func(s store.ShardStats) float64 { return float64(s.Migrations) }},
		{"era_shard_errs_total", "counter", "Operations that returned an error.",
			func(s store.ShardStats) float64 { return float64(s.Errs) }},
		{"era_shard_faults_total", "counter", "Simulated segmentation faults.",
			func(s store.ShardStats) float64 { return float64(s.Faults) }},
		{"era_shard_unsafe_accesses_total", "counter", "Unsafe accesses detected by the arena.",
			func(s store.ShardStats) float64 { return float64(s.UnsafeAccesses) }},
		{"era_shard_ooms_total", "counter", "Failed allocations - the backlog exhausting the shard heap.",
			func(s store.ShardStats) float64 { return float64(s.OOMs) }},
		{"era_shard_trav_max_op_steps", "gauge", "Worst single-operation traversal step count.",
			func(s store.ShardStats) float64 { return float64(s.MaxOpSteps) }},
		{"era_shard_swap_window_ns", "gauge", "Last migration's admission-stop-to-attach window.",
			func(s store.ShardStats) float64 { return float64(s.SwapWindowNanos) }},
		{"era_batch_fused_total", "counter", "Request batches served under one amortized SMR bracket.",
			func(s store.ShardStats) float64 { return float64(s.FusedBatches) }},
		{"era_batch_fused_ops_total", "counter", "Operations executed inside fused batch windows.",
			func(s store.ShardStats) float64 { return float64(s.FusedOps) }},
		{"era_batch_rebrackets_total", "counter", "Mid-window bracket renewals forced by the K-op cadence.",
			func(s store.ShardStats) float64 { return float64(s.Rebrackets) }},
		{"era_batch_sorts_total", "counter", "Fused batches the worker had to key-sort before execution.",
			func(s store.ShardStats) float64 { return float64(s.BatchSorts) }},
	} {
		fam := r.family(w, g.name, g.typ, g.help)
		for _, s := range stats.Shards {
			fam.add(fmt.Sprintf(`shard="%d"`, s.Shard), g.val(s))
		}
		if fam.err != nil {
			return fam.err
		}
	}

	// Live robustness verdicts: numeric classes so dashboards can alert
	// on audited < declared, plus the verdict outcome as a label.
	if r.Monitor != nil {
		decl := r.family(w, "era_shard_declared_class", "gauge",
			"Declared robustness class (0 not-robust, 1 weakly-robust, 2 robust).")
		aud := r.family(w, "era_shard_audited_class", "gauge",
			"Audited robustness class from the live window fit; -1 inconclusive.")
		for i, v := range r.Monitor.Verdicts() {
			labels := fmt.Sprintf(`shard="%d",scheme="%s"`, i, escapeLabel(v.Scheme))
			decl.add(labels, float64(declaredClass(v)))
			a := -1.0
			if !v.Inconclusive() {
				a = float64(v.AuditedClass())
			}
			aud.add(fmt.Sprintf(`%s,outcome="%s"`, labels, escapeLabel(v.Outcome)), a)
		}
		if decl.err != nil {
			return decl.err
		}
		if aud.err != nil {
			return aud.err
		}
	}

	// Sampler tick health: a gap here says the series under the verdicts
	// are thinner than their tick pretends.
	if r.Sampler != nil {
		h := r.Sampler.Health()
		for _, m := range []struct {
			name, help string
			v          uint64
		}{
			{"era_sampler_ticks_total", "Telemetry sampler ticks that fired.", h.Ticks},
			{"era_sampler_skipped_ticks_total", "Ticker ticks dropped because sampling fell behind.", h.SkippedTicks},
			{"era_sampler_late_samples_total", "Samples whose probe outran the sampling interval.", h.LateSamples},
		} {
			fam := r.family(w, m.name, "counter", m.help)
			fam.add("", float64(m.v))
			if fam.err != nil {
				return fam.err
			}
		}
	}

	// Recorder accounting: drops make ring overflow visible.
	if r.Recorder != nil {
		for _, m := range []struct {
			name, typ, help string
			v               float64
		}{
			{"era_recorder_events_total", "counter", "Events ever appended to the flight recorder.", float64(r.Recorder.Total())},
			{"era_recorder_dropped_total", "counter", "Events overwritten by ring wrap (exact).", float64(r.Recorder.Drops())},
			{"era_recorder_buffered", "gauge", "Events currently buffered.", float64(r.Recorder.Len())},
		} {
			fam := r.family(w, m.name, m.typ, m.help)
			fam.add("", m.v)
			if fam.err != nil {
				return fam.err
			}
		}
	}

	// Execution-layer ledgers: the scatter-gather request mix, and the
	// per-shard admission picture (queue pressure, health, sheds, stalled
	// legs) that explains why fan-out latency moved.
	if r.Exec != nil {
		es := r.Exec.Stats()
		req := r.family(w, "era_exec_requests_total", "counter",
			"Cross-shard requests accepted by the execution layer, by request kind.")
		for _, kind := range sortedKeys(es.Submitted) {
			req.add(fmt.Sprintf(`kind="%s"`, escapeLabel(kind)), float64(es.Submitted[kind]))
		}
		if req.err != nil {
			return req.err
		}
		for _, m := range []struct {
			name, typ, help string
			v               float64
		}{
			{"era_exec_completed_total", "counter", "Requests whose merge stage has run.", float64(es.Completed)},
			{"era_exec_partial_total", "counter", "Completed requests carrying at least one per-shard error.", float64(es.Partial)},
		} {
			fam := r.family(w, m.name, m.typ, m.help)
			fam.add("", m.v)
			if fam.err != nil {
				return fam.err
			}
		}
		for _, g := range []struct {
			name, typ, help string
			val             func(exec.ShardExecStats) float64
		}{
			{"era_exec_legs_total", "counter", "Scatter legs accepted onto the shard's queue.",
				func(s exec.ShardExecStats) float64 { return float64(s.Legs) }},
			{"era_exec_sheds_total", "counter", "Scatter legs refused by admission control.",
				func(s exec.ShardExecStats) float64 { return float64(s.Sheds) }},
			{"era_exec_leg_timeouts_total", "counter", "Scatter legs that exceeded their completion budget.",
				func(s exec.ShardExecStats) float64 { return float64(s.Timeouts) }},
			{"era_exec_leg_errs_total", "counter", "Scatter legs whose store call failed wholesale.",
				func(s exec.ShardExecStats) float64 { return float64(s.LegErrs) }},
			{"era_exec_queue_depth", "gauge", "Scatter legs currently queued on the shard.",
				func(s exec.ShardExecStats) float64 { return float64(s.Queued) }},
			{"era_exec_queue_cap", "gauge", "The shard's leg-queue capacity.",
				func(s exec.ShardExecStats) float64 { return float64(s.QueueCap) }},
			{"era_shard_health", "gauge", "Shard admission state (0 healthy, 1 degraded, 2 parked, 3 open, 4 probing).",
				func(s exec.ShardExecStats) float64 { return float64(s.Health) }},
			{"era_exec_stalled_calls", "gauge", "Store calls still running past their leg's budget.",
				func(s exec.ShardExecStats) float64 { return float64(s.Stalled) }},
		} {
			fam := r.family(w, g.name, g.typ, g.help)
			for _, s := range es.Shards {
				fam.add(fmt.Sprintf(`shard="%d"`, s.Shard), g.val(s))
			}
			if fam.err != nil {
				return fam.err
			}
		}
	}

	// Resilience-layer ledgers: retry rounds and their budget, the hedge
	// race outcome split, and the per-shard breaker ledger — the "what
	// did the policy layer do about it" companion to the era_exec block.
	if r.Resil != nil {
		rs := r.Resil.Stats()
		for _, m := range []struct {
			name, typ, help string
			v               float64
		}{
			{"era_resil_requests_total", "counter", "Requests accepted by the resilience client.", float64(rs.Requests)},
			{"era_resil_attempts_total", "counter", "Executor submissions, retry rounds included.", float64(rs.Attempts)},
			{"era_resil_retries_total", "counter", "Backoff-and-resubmit rounds taken.", float64(rs.Retries)},
			{"era_resil_recovered_total", "counter", "Requests that ended clean after at least one retry.", float64(rs.Recovered)},
			{"era_resil_budget_exhausted_total", "counter", "Retry rounds refused by the retry-budget token bucket.", float64(rs.BudgetExhausted)},
			{"era_resil_fast_fails_total", "counter", "Keys refused locally by an open circuit breaker.", float64(rs.FastFails)},
			{"era_resil_offered_units_total", "counter", "Operation units offered by callers (amplification denominator).", float64(rs.OfferedUnits)},
			{"era_resil_attempt_units_total", "counter", "Operation units dispatched to the store, retries included.", float64(rs.AttemptUnits)},
			{"era_resil_hedges_total", "counter", "Hedge calls launched against slow legs.", float64(rs.Hedges)},
			{"era_resil_hedge_wins_total", "counter", "Legs settled by the hedge call rather than the primary.", float64(rs.HedgeWins)},
			{"era_resil_wasted_work_total", "counter", "Hedge-race losers discarded through the late-call path.", float64(rs.HedgeWaste)},
			{"era_resil_hedge_delay_ns", "gauge", "Current hedge trigger delay from the leg-latency quantile (0 = cold or disabled).", float64(rs.HedgeDelay)},
		} {
			fam := r.family(w, m.name, m.typ, m.help)
			fam.add("", m.v)
			if fam.err != nil {
				return fam.err
			}
		}
		if len(rs.Breakers) > 0 {
			for _, g := range []struct {
				name, typ, help string
				val             func(resil.BreakerStats) float64
			}{
				{"era_resil_breaker_opens_total", "counter", "Transitions into the open state.",
					func(b resil.BreakerStats) float64 { return float64(b.Opens) }},
				{"era_resil_breaker_failure_ewma", "gauge", "Smoothed recent leg-failure rate feeding the breaker.",
					func(b resil.BreakerStats) float64 { return b.EWMA }},
			} {
				fam := r.family(w, g.name, g.typ, g.help)
				for _, b := range rs.Breakers {
					fam.add(fmt.Sprintf(`shard="%d"`, b.Shard), g.val(b))
				}
				if fam.err != nil {
					return fam.err
				}
			}
		}
	}

	return nil
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// declaredClass digs the declared class back out of a rendered verdict.
func declaredClass(v telemetry.Verdict) smr.RobustnessClass {
	for _, c := range []smr.RobustnessClass{smr.NotRobust, smr.WeaklyRobust, smr.Robust} {
		if c.String() == v.Declared {
			return c
		}
	}
	return smr.NotRobust
}

// TimelineView is the /timeline JSON payload: the recorder's buffered
// events plus its accounting, the live verdicts, and the sampler health.
type TimelineView struct {
	Events   []rec.Event         `json:"events"`
	Dropped  uint64              `json:"dropped"`
	Total    uint64              `json:"total"`
	Verdicts []telemetry.Verdict `json:"verdicts,omitempty"`
	Sampler  *telemetry.Health   `json:"sampler,omitempty"`
}

// Timeline assembles the live timeline view. Events are stamp-ordered.
func (r *Registry) Timeline() TimelineView {
	v := TimelineView{
		Events:  r.Recorder.Snapshot(),
		Dropped: r.Recorder.Drops(),
		Total:   r.Recorder.Total(),
	}
	sort.SliceStable(v.Events, func(i, j int) bool { return v.Events[i].At < v.Events[j].At })
	if r.Monitor != nil {
		v.Verdicts = r.Monitor.Verdicts()
	}
	if r.Sampler != nil {
		h := r.Sampler.Health()
		v.Sampler = &h
	}
	return v
}
