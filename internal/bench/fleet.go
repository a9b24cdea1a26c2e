package bench

import (
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/sched"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Sizing shared by the fleet runs (RunService and so EXP-CHAOS, EXP-ADAPT,
// EXP-OBS). The threshold is fixed, rather than left to per-scheme
// defaults, because it fixes the audits' bounded-backlog budget; the heap
// is generous enough that only a genuinely unbounded backlog can exhaust
// it — and if one does, the OOM is reported as audit evidence, not a
// crash.
const (
	fleetStructure = "hashmap" // HP-compatible, so the widest scheme set applies
	fleetWorkload  = "uniform"
	fleetSchedule  = "steady"
	fleetBatch     = 16
	fleetKeyRange  = 2048
	fleetThreshold = 16
	fleetSlots     = 1 << 18
	// fleetWorkers is one survivor above the worker a stall-family fault
	// parks: the shard's churn (and telemetry progress) must stay alive.
	fleetWorkers = 2
)

// fleetLadder is the adaptive controller's migration ladder, cheapest
// first: it walks the paper's robustness classes.
var fleetLadder = []string{"ebr", "ibr", "hp"}

// fleetConfig sizes one faulted fleet: a gated shard per scheme,
// closed-loop clients for a wall-clock window, a telemetry sampler, and a
// chaos engine aimed at the shards.
//
// The window is duration-boxed, not op-boxed: a client whose batch lands
// on a stalled worker blocks until the fault heals (that is the fault
// working), so "run until every client did N ops" could never terminate.
type fleetConfig struct {
	schemes   []string
	structure string
	workers   int
	clients   int
	batch     int
	keyRange  int
	duration  time.Duration
	mix       Mix
	workload  string
	schedule  string
	seed      uint64
	// controlled fleets migrate under an adapt controller: they carry the
	// verdict monitor the sampler feeds, and their migration grace scales
	// with the window — a parked worker never drains anyway, and every ms
	// spent waiting is a ms the shard serves nothing but ErrShardClosed.
	controlled bool
	// clock and recorder, when non-nil, put the store, the sampler, the
	// monitor's verdict flips and the engine's fire/heal events on one
	// flight-recorder tape.
	clock    *rec.Clock
	recorder *rec.Recorder
}

// fleet is an assembled, prefilled, not yet started faulted fleet.
type fleet struct {
	cfg     fleetConfig
	st      *store.Store
	src     *workload.Source
	mon     *telemetry.Monitor // nil unless controlled
	sampler *telemetry.Sampler
	// probe is what the sampler reads: the store's gauges, which a run
	// may wrap (a resilience client's counters) before it starts.
	probe  telemetry.Probe
	engine *chaos.Engine
}

func newFleet(cfg fleetConfig) (*fleet, error) {
	gates := make([]*sched.Breakpoints, len(cfg.schemes))
	specs := make([]store.ShardSpec, len(cfg.schemes))
	for i, scheme := range cfg.schemes {
		gates[i] = sched.NewBreakpoints()
		specs[i] = store.ShardSpec{
			Scheme:    scheme,
			Structure: cfg.structure,
			Workers:   cfg.workers,
			Threshold: fleetThreshold,
			Slots:     fleetSlots,
			Gate:      gates[i],
		}
	}
	var grace time.Duration
	if cfg.controlled {
		grace = max(cfg.duration/16, 10*time.Millisecond)
	}
	st, err := store.New(store.Config{
		Shards: specs, KeyRange: cfg.keyRange, MigrateGrace: grace, Recorder: cfg.recorder,
	})
	if err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg, st: st}
	if f.src, err = workload.New(workload.Config{
		Dist: cfg.workload, Schedule: cfg.schedule, KeyRange: cfg.keyRange, Mix: cfg.mix, Seed: cfg.seed,
	}); err != nil {
		st.Close()
		return nil, err
	}
	// Prefill to half occupancy through the service, like any traffic.
	if err := prefillHalf(st, cfg.keyRange, cfg.batch, cfg.seed); err != nil {
		st.Close()
		return nil, err
	}
	tcfg := telemetry.Config{
		Interval: sampleEvery(cfg.duration), Capacity: 4096, Clock: cfg.clock, Recorder: cfg.recorder,
	}
	if cfg.controlled {
		if f.mon, err = adaptMonitor(st, cfg.recorder); err != nil {
			st.Close()
			return nil, err
		}
		tcfg.OnSample = f.mon.Observe
	}
	f.probe = storeProbe(st)
	f.sampler = telemetry.NewSampler(tcfg, func() []telemetry.Point { return f.probe() })
	f.engine = chaos.NewEngine(&chaos.Target{Store: st, Gates: gates, KeyRange: cfg.keyRange})
	f.engine.SetObs(cfg.clock, cfg.recorder)
	return f, nil
}

// budget is the per-shard backlog budget the audits fit against.
func (f *fleet) budget() telemetry.Budget {
	return telemetry.Budget{Threads: f.cfg.workers, Threshold: fleetThreshold}
}

// series snapshots every shard's sampled backlog trajectory.
func (f *fleet) series() [][]telemetry.Point {
	out := make([][]telemetry.Point, len(f.cfg.schemes))
	for s := range out {
		out[s] = f.sampler.Series(s).Points()
	}
	return out
}

// traffic is what the clients of one window experienced.
type traffic struct {
	ops, opErrs uint64
	lat         hist.Latency
	elapsed     time.Duration
}

// run drives the window: sampler and engine start, closed-loop clients
// batch until the deadline (each, when non-nil, sees every request
// latency live), then the sampler stops and the store drains. beside,
// when non-nil, runs concurrently with the clients — a second traffic
// lane that must also be done by the deadline — and the store drains
// only after it returns.
//
// The engine is stopped at the deadline from a watchdog, independent of
// client progress: clients blocked on a stalled worker only come back
// once the faults heal. atDeadline runs on the watchdog right before the
// heal — the place to freeze a controller and snapshot the evidence
// (stats, series, verdicts): a churn heal reopens its shard with zeroed
// counters, and a stall heal lets the resumed worker collapse the
// backlog, either of which would contaminate the faulted window if read
// afterwards.
func (f *fleet) run(atDeadline func(), each func(time.Duration), beside func(deadline time.Time)) (traffic, error) {
	f.sampler.Start()
	f.engine.Start()
	start := time.Now()
	deadline := start.Add(f.cfg.duration)
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		time.Sleep(time.Until(deadline))
		atDeadline()
		f.engine.Stop()
	}()
	var lane sync.WaitGroup
	if beside != nil {
		lane.Add(1)
		go func() {
			defer lane.Done()
			beside(deadline)
		}()
	}
	ops, opErrs, lat, err := runTimedClients(f.st, f.src, f.cfg.clients, f.cfg.batch, deadline, each)
	lane.Wait()
	<-healed
	t := traffic{ops: ops, opErrs: opErrs, lat: lat, elapsed: time.Since(start)}
	f.sampler.Stop()
	if err != nil {
		return t, err
	}
	return t, f.st.Close()
}

// runTimedClients drives closed-loop clients until deadline, tolerating
// per-operation errors (they are what faults — and migration windows —
// look like from outside). Returns total ops, op errors, and merged
// request latencies. Shared by every duration-boxed experiment. each,
// when non-nil, receives every request latency live (the SLO monitor's
// feed); it is called from every client goroutine concurrently and must
// be cheap and thread-safe.
func runTimedClients(st *store.Store, src *workload.Source, clients, batchSize int, deadline time.Time, each func(time.Duration)) (uint64, uint64, hist.Latency, error) {
	var wg sync.WaitGroup
	ops := make([]uint64, clients)
	errs := make([]uint64, clients)
	lats := make([]hist.Latency, clients)
	fail := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := src.Thread(c, 1<<20)
			batch := make([]store.Op, 0, batchSize)
			for time.Now().Before(deadline) {
				batch = batch[:0]
				for len(batch) < batchSize {
					kind, key := stream.Next()
					batch = append(batch, store.Op{Kind: kind, Key: key})
				}
				t0 := time.Now()
				res, err := st.Do(batch)
				if err != nil {
					// Store-level failure (closed store): a harness bug,
					// not a fault outcome.
					fail[c] = err
					return
				}
				d := time.Since(t0)
				lats[c].Record(d)
				if each != nil {
					each(d)
				}
				ops[c] += uint64(len(batch))
				for _, r := range res {
					if r.Err != nil {
						errs[c]++
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var lat hist.Latency
	var totalOps, totalErrs uint64
	for c := 0; c < clients; c++ {
		if fail[c] != nil {
			return 0, 0, lat, fail[c]
		}
		totalOps += ops[c]
		totalErrs += errs[c]
		lat.Merge(&lats[c])
	}
	return totalOps, totalErrs, lat, nil
}

// prefillHalf inserts exactly ⌊keyRange/2⌋ distinct keys through the
// service — a seeded sample without replacement, drawn by a partial
// Fisher–Yates shuffle — so contains() hits half the time. Shared by
// every store-driving experiment.
func prefillHalf(st *store.Store, keyRange, batchSize int, seed uint64) error {
	rng := workload.RNG(seed ^ 0xf00d)
	keys := make([]int64, keyRange)
	for i := range keys {
		keys[i] = int64(i)
	}
	n := keyRange / 2
	batch := make([]store.Op, 0, batchSize)
	for i := 0; i < n; i++ {
		j := i + int(rng.Next()%uint64(keyRange-i))
		keys[i], keys[j] = keys[j], keys[i]
		batch = append(batch, store.Op{Kind: workload.OpInsert, Key: keys[i]})
		if len(batch) == batchSize || i == n-1 {
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

// sampleEvery derives a telemetry tick from a traffic window: ~200
// samples per run, clamped to [200µs, 5ms].
func sampleEvery(d time.Duration) time.Duration {
	return min(max(d/200, 200*time.Microsecond), 5*time.Millisecond)
}
