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
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/resil"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ServiceConfig sizes one deployment run — eraserve's, and every gated
// service experiment's (EXP-CHAOS, EXP-ADAPT, EXP-OBS, EXP-RESIL are one
// or two ServiceConfig literals each): a sharded store whose shards cycle
// through Schemes, clients batching operations for a wall-clock window,
// the Faults injected as their entries say, and each shard's declared
// robustness class (Definitions 5.1–5.2) audited against the backlog
// growth its sampled telemetry shows. An empty fault list is a healthy
// deployment.
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
	// adapt.DefaultLadder, one per robustness class.
	Schemes []string
	// Structure is the per-shard set structure; empty selects "hashmap"
	// (HP-compatible, so the widest scheme set applies).
	Structure string
	// WorkersPerShard sizes each shard's pool; 0 selects one more than
	// the number of worker-parking fault entries: every parking fault
	// claims a worker, and the audit needs a survivor to keep the shard's
	// churn (and telemetry progress) alive.
	WorkersPerShard int
	// Clients is the client count, the fan-out lane's share included; 0
	// selects 2 × Shards.
	Clients int
	// Batch is operations per service request (≥ 2 engages the fused
	// shard path); 0 selects 16.
	Batch int
	// KeyRange is the key universe; 0 selects 2048.
	KeyRange int
	// Duration is the traffic window; 0 selects 400ms.
	Duration time.Duration
	// Faults are the fault entries RunService injects, each exactly as
	// written.
	Faults []Fault
	// Mix, Workload, Schedule name the traffic shape (workload
	// registries); zero values select balanced/uniform/steady.
	Mix      workload.Mix
	Workload string
	Schedule string
	// Seed makes every client stream deterministic.
	Seed uint64
	// Adapt, when non-nil, runs the adaptive-reclamation controller
	// (internal/adapt) over the store for the window: the sampler feeds
	// the online classifier, and shards whose scheme sits on the
	// controller's ladder are escalated/de-escalated live.
	Adapt *adapt.Config
	// FanoutPct, when positive, gives FanoutPct percent of Clients (at
	// least one) to a fan-out lane: cross-shard requests — FanoutMix's
	// multi-key gets, inserts, deletes, range scans and counts — through
	// the resilience client over the pipelined executor, with their own
	// p50/p99. The rest stay point-op clients; 100 runs the lane alone.
	FanoutPct int
	// FanoutMix is the lane's request mix; zero selects
	// workload.ReqMixFanout.
	FanoutMix workload.ReqMix
	// FanoutPace, when positive, runs the lane open-loop: each lane client
	// submits one request per FanoutPace whether or not the last one
	// completed, so a slow policy cannot shed offered load by being slow.
	// Zero runs it closed-loop.
	FanoutPace time.Duration
	// Retry, Hedge and Breaker switch on the lane's resilience policies
	// (internal/resil): typed-error-aware retries, p99-delay hedged
	// legs, per-shard circuit breakers. With none set the lane submits
	// each request once.
	Retry   bool
	Hedge   bool
	Breaker bool
	// Record puts the run on one flight-recorder tape — shard scans, guard
	// trips, fault fire/heal, verdict flips, migrations, the lane's exec
	// and retry events — returned in ServiceResult.Tape.
	Record bool
	// ObsAddr, when non-empty, records the run and serves the live
	// observability plane (/metrics, /timeline, /debug/pprof/) on this
	// address for it. The bound URL is reported in the result.
	ObsAddr string
}

// Fault is one fault entry: a chaos registry name, the shards it targets
// (empty: every shard) and the schedule each targeted shard's episodes
// follow.
type Fault struct {
	Name     string         `json:"name"`
	Shards   []int          `json:"shards,omitempty"`
	Schedule chaos.Schedule `json:"schedule"`
}

// FaultsInEveryShard is one entry per name, each fired into every shard
// an eighth of the way into a window of d — early, so most of the window
// is faulted (the growth fit reads the faulted tail), and held to the
// deadline. eraserve's -faults and EXP-CHAOS's audit inject these.
func FaultsInEveryShard(d time.Duration, names ...string) []Fault {
	faults := make([]Fault, len(names))
	for i, name := range names {
		faults[i] = Fault{Name: name, Schedule: chaos.OneShot(d / 8)}
	}
	return faults
}

// targets lists the shards the entry fires into.
func (f Fault) targets(shards int) []int {
	if len(f.Shards) > 0 {
		return f.Shards
	}
	all := make([]int, shards)
	for s := range all {
		all[s] = s
	}
	return all
}

// faultNames lists the entries' fault names.
func faultNames(faults []Fault) []string {
	names := make([]string, len(faults))
	for i, f := range faults {
		names[i] = f.Name
	}
	return names
}

func (cfg *ServiceConfig) fill() {
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = adapt.DefaultLadder
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
			if chaos.ParksWorker(f.Name) {
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
	if cfg.Mix == (workload.Mix{}) {
		cfg.Mix = workload.MixBalanced
	}
	if cfg.Workload == "" {
		cfg.Workload = fleetWorkload
	}
	if cfg.Schedule == "" {
		cfg.Schedule = fleetSchedule
	}
	cfg.FanoutPct = min(cfg.FanoutPct, 100)
	if cfg.FanoutMix == (workload.ReqMix{}) {
		cfg.FanoutMix = workload.ReqMixFanout
	}
}

// scheme is shard s's scheme: Schemes cycled across the shards.
func (cfg ServiceConfig) scheme(s int) string { return cfg.Schemes[s%len(cfg.Schemes)] }

// laneClients is the fan-out lane's share of Clients.
func (cfg ServiceConfig) laneClients() int {
	if cfg.FanoutPct <= 0 {
		return 0
	}
	return max(cfg.Clients*cfg.FanoutPct/100, 1)
}

// Validate rejects bad selections before anything is built, each with
// its registry's listing: schemes and ladder rungs the structure cannot
// host (Appendix E), unknown faults or target shards, key distributions,
// schedules and request mixes, and lane settings without a lane.
// RunService calls it first; a CLI calls it before creating its artifact.
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
		p, err := all.Props(s)
		if err != nil {
			return err
		}
		if !registry.Applicable(p, info) {
			return fmt.Errorf("bench: scheme %s is not applicable to %s (Appendix E)", s, info.Name)
		}
	}
	for _, f := range cfg.Faults {
		if _, err := chaos.New(f.Name, 0); err != nil {
			return err
		}
		for _, s := range f.Shards {
			if s < 0 || s >= cfg.Shards {
				return fmt.Errorf("bench: fault %s targets shard %d of %d", f.Name, s, cfg.Shards)
			}
		}
	}
	if _, err := workload.NewDist(cfg.Workload, 2); err != nil {
		return err
	}
	if _, err := workload.NewSchedule(cfg.Schedule, cfg.Mix); err != nil {
		return err
	}
	if err := cfg.FanoutMix.Validate(); err != nil {
		return err
	}
	if cfg.FanoutPct <= 0 && (cfg.Retry || cfg.Hedge || cfg.Breaker || cfg.FanoutPace > 0) {
		return errors.New("bench: retry/hedge/breaker/pace shape the fan-out lane; set FanoutPct > 0")
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
	// Verdict is the verdict monitor's live windowed class at the
	// deadline, VerdictGrowth its fitted shape (runs with faults or Adapt,
	// which build the monitor): for a shard that migrated, the class of
	// its last incarnation; "inconclusive" when the window held too little
	// evidence to classify.
	Verdict       string `json:"verdict,omitempty"`
	VerdictGrowth string `json:"verdict_growth,omitempty"`
	// Series is the shard's sampled backlog trajectory (the evidence).
	Series []telemetry.Point `json:"series,omitempty"`
}

// ServiceRow is the run's client-side summary. P50/P99 are
// *service-request* latencies — one batched Do as seen by a point-op
// client, queueing and live faults included.
type ServiceRow struct {
	Shards    int          `json:"shards"`
	Schemes   []string     `json:"schemes"`
	Structure string       `json:"structure"`
	Faults    []Fault      `json:"faults"`
	Workers   int          `json:"workers_per_shard"`
	Clients   int          `json:"clients"`
	Batch     int          `json:"batch"`
	KeyRange  int          `json:"key_range"`
	Mix       workload.Mix `json:"mix"`
	Workload  string       `json:"workload"`
	Schedule  string       `json:"schedule"`
	Seed      uint64       `json:"seed"`
	// PointClients counts the point-op clients that ran; the fan-out
	// lane's FanoutClients make up the rest of Clients.
	PointClients int           `json:"point_clients"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	Ops          uint64        `json:"ops"`
	MopsPerSec   float64       `json:"mops_per_sec"`
	P50          time.Duration `json:"p50_ns"`
	P99          time.Duration `json:"p99_ns"`
	// OpErrs counts per-operation errors clients absorbed (shard closed
	// during churn faults or a migration swap, OOM on an exhausted shard).
	OpErrs uint64 `json:"op_errs"`
	// PeakRetired sums the shards' backlog watermarks; Migrations totals
	// the live scheme migrations.
	PeakRetired uint64 `json:"peak_retired"`
	Migrations  uint64 `json:"migrations,omitempty"`

	// Fan-out lane measurement (FanoutPct runs only), with its own
	// percentiles. FanoutClean counts requests that completed with no
	// failed leg, FanoutPartial those with at least one; FanoutWindow*
	// restrict both counts to requests submitted while a fault episode
	// was held. FanoutErrs counts failed requests plus per-key errors
	// inside completed ones, FanoutSheds legs rejected under saturation
	// (exec.ErrShed anywhere in a result's error chain). The resilience
	// counters: retries re-submitted, requests recovered clean by a retry,
	// hedges launched, hedge races won by the duplicate, and the retry
	// load amplification over offered load. CleanAfterHeal reports that a
	// full-width request after a faulted run's heal came back clean.
	FanoutPct           int           `json:"fanout_pct,omitempty"`
	FanoutClients       int           `json:"fanout_clients,omitempty"`
	FanoutMix           string        `json:"fanout_mix,omitempty"`
	FanoutPace          time.Duration `json:"fanout_pace_ns,omitempty"`
	FanoutReqs          uint64        `json:"fanout_reqs,omitempty"`
	FanoutP50           time.Duration `json:"fanout_p50_ns,omitempty"`
	FanoutP99           time.Duration `json:"fanout_p99_ns,omitempty"`
	FanoutClean         uint64        `json:"fanout_clean,omitempty"`
	FanoutPartial       uint64        `json:"fanout_partial,omitempty"`
	FanoutWindowReqs    uint64        `json:"fanout_window_reqs,omitempty"`
	FanoutWindowClean   uint64        `json:"fanout_window_clean,omitempty"`
	FanoutErrs          uint64        `json:"fanout_errs,omitempty"`
	FanoutSheds         uint64        `json:"fanout_sheds,omitempty"`
	FanoutRetries       uint64        `json:"fanout_retries,omitempty"`
	FanoutRecovered     uint64        `json:"fanout_recovered,omitempty"`
	FanoutHedges        uint64        `json:"fanout_hedges,omitempty"`
	FanoutHedgeWins     uint64        `json:"fanout_hedge_wins,omitempty"`
	FanoutAmplification float64       `json:"fanout_amplification,omitempty"`
	CleanAfterHeal      bool          `json:"clean_after_heal,omitempty"`
}

// ServiceResult is one deployment run (BENCH_service.json from eraserve,
// and the arms of the service experiments): a row per shard, the fault
// episode log, the adaptive controller's migration log, the client-side
// aggregate and — for recorded runs — the flight-recorder tape.
type ServiceResult struct {
	Rows      []ServiceShardRow `json:"rows"`
	Events    []chaos.Event     `json:"events"`
	Episodes  []adapt.Episode   `json:"episodes,omitempty"`
	Aggregate ServiceRow        `json:"aggregate"`
	// Consistent reports that no audit contradicted a declared class.
	Consistent bool `json:"consistent"`
	// ObsURL is the live plane's bound URL (ObsAddr runs only).
	ObsURL string `json:"obs_url,omitempty"`
	// Tape is the flight recorder's stamp-ordered events and TapeDrops the
	// events its rings overwrote (Record and ObsAddr runs only): nonzero
	// drops mean the tape holds a suffix of the run.
	Tape      []rec.Event `json:"tape,omitempty"`
	TapeDrops uint64      `json:"tape_drops,omitempty"`
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
		a.Shards, a.Workers, a.Structure, a.Clients, a.Batch, faultNames(a.Faults), a.Workload, a.Schedule, a.Mix, a.Seed)
	fmt.Fprintf(w, "           %d ops (%d op-errors) in %s = %.3f Mops/s, request p50 %s p99 %s, peak-retired %d, migrations %d, verdicts consistent: %v\n",
		a.Ops, a.OpErrs, a.Elapsed.Round(time.Millisecond), a.MopsPerSec, fmtLatency(a.P50), fmtLatency(a.P99),
		a.PeakRetired, a.Migrations, res.Consistent)
	if a.FanoutPct > 0 {
		fmt.Fprintf(w, "fan-out:   %d clients (%d%% of fleet), mix %s: %d requests, p50 %s p99 %s, %d clean, %d partial, %d op-errors, %d sheds\n",
			a.FanoutClients, a.FanoutPct, a.FanoutMix, a.FanoutReqs, fmtLatency(a.FanoutP50), fmtLatency(a.FanoutP99),
			a.FanoutClean, a.FanoutPartial, a.FanoutErrs, a.FanoutSheds)
		fmt.Fprintf(w, "           fault windows: %d requests, %d clean; clean after heal: %v\n",
			a.FanoutWindowReqs, a.FanoutWindowClean, a.CleanAfterHeal)
		fmt.Fprintf(w, "resil:     %d retries (%d requests recovered, amplification %.3fx), %d hedges (%d races won)\n",
			a.FanoutRetries, a.FanoutRecovered, a.FanoutAmplification, a.FanoutHedges, a.FanoutHedgeWins)
	}
	if len(res.Tape) > 0 {
		fmt.Fprintf(w, "recorder:  %d events on the tape (%d dropped)\n", len(res.Tape), res.TapeDrops)
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

// faultedLegBudget is a faulted lane's leg budget: far above a healthy
// leg's service time, and short enough that a leg stalled in a fault
// hold fails typed (and retries, and trips breakers) instead of blocking
// until the heal.
const faultedLegBudget = 6 * time.Millisecond

// retryBackoff sizes the lane's retry backoff from the longest fault hold
// that heals on its own: base 2/3 and cap 4/3 of it, so — with jitter in
// [d/2, d) — the second retry of a request that failed anywhere inside a
// hold lands after the heal. Faults held to the deadline cannot be
// outlasted; with no hold it returns zero, resil's defaults.
func retryBackoff(faults []Fault) (base, capped time.Duration) {
	var hold time.Duration
	for _, f := range faults {
		hold = max(hold, f.Schedule.Hold)
	}
	return hold * 2 / 3, hold * 4 / 3
}

// fanoutLane is the run's cross-shard traffic: the lane's clients drive
// FanoutMix requests through the resilience client until the deadline,
// beside the point-op clients on the same store — so the lane's tail
// includes cross-traffic queueing, which is what a service's fan-out tail
// means. Failed requests, partial completions and per-key errors are
// counted, never fatal.
type fanoutLane struct {
	client *resil.Client
	src    *workload.ReqSource
	clock  *rec.Clock
	size   int
	pace   time.Duration
	tally
}

func newFanoutLane(f *fleet, cfg ServiceConfig) (*fanoutLane, error) {
	src, err := workload.NewReqSource(workload.ReqConfig{
		Dist: cfg.Workload, KeyRange: cfg.KeyRange, Mix: cfg.FanoutMix,
		MultiSize: fanoutKeys, Seed: cfg.Seed ^ 0xfa0fa0,
	})
	if err != nil {
		return nil, err
	}
	l := &fanoutLane{
		src: src, clock: f.clock, size: cfg.laneClients(), pace: cfg.FanoutPace,
	}
	// A healthy deployment has no fault to bound, so its lane skips the
	// leg budget and the watchdog it puts on every leg.
	ecfg := exec.Config{Verdicts: f.mon, Clock: f.clock, Recorder: f.recorder, LegTimeout: faultedLegBudget}
	if len(cfg.Faults) == 0 {
		ecfg.LegTimeout = -1
	}
	rcfg := resil.Config{
		Hedge: cfg.Hedge, Breaker: cfg.Breaker,
		Seed: cfg.Seed ^ 0x5e111e5, Clock: f.clock, Recorder: f.recorder,
	}
	rcfg.RetryBase, rcfg.RetryCap = retryBackoff(cfg.Faults)
	if !cfg.Retry {
		rcfg.MaxAttempts, rcfg.RetryBudget = 1, -1
	}
	if l.client, err = resil.New(f.st, ecfg, rcfg); err != nil {
		return nil, err
	}
	return l, nil
}

// run drives the lane until deadline: closed-loop, or open-loop at the
// pace with each request on its own goroutine (a retrying Do blocks
// through its backoff), waiting for the stragglers before it returns.
func (l *fanoutLane) run(deadline time.Time) {
	l.tally = runClients(l.size, func(c int, t *tally) {
		stream := l.src.Thread(c, 1<<20)
		var mu sync.Mutex
		var inflight sync.WaitGroup
		do := func(req workload.Req) {
			at, t0 := l.clock.Now(), time.Now()
			res, err := l.client.Do(req)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			t.settle(at, lat, res, err)
		}
		next := time.Now()
		for time.Now().Before(deadline) {
			req := stream.Next()
			if l.pace <= 0 {
				do(req)
				continue
			}
			time.Sleep(time.Until(next))
			next = next.Add(l.pace)
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				do(req)
			}()
		}
		inflight.Wait()
	})
}

// settle folds one lane request, submitted at at on the run clock, into
// the client's tally.
func (t *tally) settle(at, lat time.Duration, res *exec.Result, err error) {
	if err != nil {
		if errors.Is(err, exec.ErrShed) {
			t.sheds++
		}
		t.errs++
		return
	}
	t.lat.Record(lat)
	t.n++
	if res.Partial() {
		t.partial++
	}
	t.submitted = append(t.submitted, submission{at: at, clean: !res.Partial()})
	for _, serr := range res.ShardErrs {
		if errors.Is(serr.Reason, exec.ErrShed) {
			t.sheds++
		}
	}
	for _, r := range res.Results {
		if r.Err != nil {
			t.errs++
		}
	}
}

// probeClean closes a faulted run's chain after the heal: full-width
// range counts until one comes back with no failed leg — a parked
// shard's timed-out calls drain first — for at most five seconds.
func (l *fanoutLane) probeClean(keyRange int) bool {
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		res, err := l.client.Do(workload.Req{Kind: workload.ReqRangeCount, Hi: int64(keyRange)})
		if err == nil && !res.Partial() {
			return true
		}
	}
	return false
}

// RunService builds a store with Schemes cycled across Shards (gated for
// injection when the run has faults),
// prefills it to half the key range, runs the point-op clients (and the
// fan-out lane) for the window while the chaos engine injects the fault
// entries and — with Adapt — the controller migrates shards live,
// samples per-shard backlog telemetry throughout, then drains the store
// and assembles one row per shard: its traffic, safety counters, the
// audit of its declared robustness class against the fitted growth of
// its faulted window, and the monitor's final verdict.
func RunService(cfg ServiceConfig) (ServiceResult, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return ServiceResult{}, err
	}
	f, err := newFleet(cfg)
	if err != nil {
		return ServiceResult{}, err
	}
	defer f.st.Close()
	for _, fault := range cfg.Faults {
		for _, s := range fault.targets(cfg.Shards) {
			if err := f.engine.Add(fault.Name, s, fault.Schedule); err != nil {
				return ServiceResult{}, err
			}
		}
	}

	reg := &obs.Registry{Store: f.st, Sampler: f.sampler, Monitor: f.mon, Recorder: f.recorder}
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
		acfg.Clock, acfg.Recorder = f.clock, f.recorder
		if ctl, err = adapt.New(acfg, f.st, f.mon); err != nil {
			return ServiceResult{}, err
		}
		ctl.Start()
	}

	before := f.st.Stats()
	var stats store.Stats
	var series [][]telemetry.Point
	var verdicts []telemetry.Verdict
	t, err := f.run(func() {
		if ctl != nil {
			ctl.Stop()
		}
		stats = f.st.Stats()
		series = f.series()
		if f.mon != nil {
			verdicts = f.mon.Verdicts()
		}
	}, beside)
	if err != nil {
		return ServiceResult{}, err
	}

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
			PointClients: t.clients, Elapsed: t.elapsed, Ops: t.n, MopsPerSec: rate(t.n), OpErrs: t.errs,
			P50: t.lat.Percentile(0.50), P99: t.lat.Percentile(0.99),
			PeakRetired: stats.MaxRetired,
		},
	}
	if ctl != nil {
		res.Episodes = ctl.Episodes()
	}
	if lane != nil {
		a, rs := &res.Aggregate, lane.client.Stats()
		a.FanoutPct, a.FanoutClients, a.FanoutMix, a.FanoutPace = cfg.FanoutPct, lane.tally.clients, cfg.FanoutMix.String(), cfg.FanoutPace
		a.FanoutReqs, a.FanoutClean, a.FanoutPartial = lane.n, lane.n-lane.partial, lane.partial
		a.FanoutP50, a.FanoutP99 = lane.lat.Percentile(0.50), lane.lat.Percentile(0.99)
		a.FanoutErrs, a.FanoutSheds = lane.errs, lane.sheds
		a.FanoutRetries, a.FanoutRecovered, a.FanoutAmplification = rs.Retries, rs.Recovered, rs.Amplification()
		a.FanoutHedges, a.FanoutHedgeWins = rs.Hedges, rs.HedgeWins
		for _, sub := range lane.submitted {
			if inFaultWindow(res.Events, sub.at) {
				a.FanoutWindowReqs++
				if sub.clean {
					a.FanoutWindowClean++
				}
			}
		}
		if len(cfg.Faults) > 0 {
			a.CleanAfterHeal = lane.probeClean(cfg.KeyRange)
		}
		if err := lane.client.Close(); err != nil {
			return ServiceResult{}, err
		}
	}
	if err := f.st.Close(); err != nil {
		return ServiceResult{}, err
	}
	after := f.st.Stats()
	res.Aggregate.Migrations = after.Migrations
	if f.recorder != nil {
		res.Tape, res.TapeDrops = f.recorder.Snapshot(), f.recorder.Drops()
	}
	for s := range cfg.Shards {
		scheme := cfg.scheme(s)
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
		if verdicts != nil {
			row.Verdict, row.VerdictGrowth = verdicts[s].Audited, verdicts[s].Fit.GrowthName
			if verdicts[s].Inconclusive() {
				row.Verdict = "inconclusive"
			}
		}
		// Heap exhaustion is stronger evidence than any fit: the backlog
		// literally ran the shard out of memory.
		if row.OOMs > 0 {
			row.Audited, row.Growth = smr.NotRobust.String(), telemetry.GrowthUnbounded.String()
			if verdicts != nil {
				row.Verdict, row.VerdictGrowth = row.Audited, row.Growth
			}
			row.Consistent = row.Declared == row.Audited
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

// inFaultWindow reports whether a request submitted at at (run clock)
// went in while some fault episode was held.
func inFaultWindow(events []chaos.Event, at time.Duration) bool {
	for _, ev := range events {
		if ev.Err == "" && at >= ev.At && (ev.Healed == 0 || at <= ev.Healed) {
			return true
		}
	}
	return false
}
