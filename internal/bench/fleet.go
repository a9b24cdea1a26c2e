package bench

import (
	"cmp"
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

// Sizing shared by every deployment (RunService). The threshold is fixed,
// rather than left to per-scheme defaults, because it fixes the audits'
// bounded-backlog budget; the heap is generous enough that only a
// genuinely unbounded backlog can exhaust it — and if one does, the OOM
// is reported as audit evidence, not a crash.
const (
	fleetStructure = "hashmap" // HP-compatible, so the widest scheme set applies
	fleetWorkload  = "uniform"
	fleetSchedule  = "steady"
	fleetBatch     = 16
	fleetKeyRange  = 2048
	fleetThreshold = 16
	fleetSlots     = 1 << 18
	// fanoutKeys is the key count of each multi-key fan-out request.
	fanoutKeys = 8
	// recorderCapacity is a recorded run's per-stripe ring size: large
	// enough that a one-second window's scan events cannot wrap the early
	// fault fires out of the ring.
	recorderCapacity = 1 << 15
)

// fleetLadder is the adaptive controller's migration ladder, cheapest
// first: it walks the paper's robustness classes.
var fleetLadder = []string{"ebr", "ibr", "hp"}

// fleet is an assembled, prefilled, not yet started deployment of a
// filled ServiceConfig: a shard per scheme slot, a telemetry
// sampler, a chaos engine aimed at the shards, and the run clock they
// all stamp. It is the only place internal/bench builds a store.
type fleet struct {
	cfg      ServiceConfig
	st       *store.Store
	src      *workload.Source
	clock    *rec.Clock
	recorder *rec.Recorder // nil unless Record or ObsAddr
	// mon is the verdict monitor the sampler feeds (faulted or adaptive
	// runs): the controller's classifier, the lane's admission signal, and
	// the source of each row's final verdict.
	mon     *telemetry.Monitor
	sampler *telemetry.Sampler
	// probe is what the sampler reads: the store's gauges, which a run
	// may wrap (a resilience client's counters) before it starts.
	probe  telemetry.Probe
	engine *chaos.Engine
}

func newFleet(cfg ServiceConfig) (*fleet, error) {
	gates := make([]*sched.Breakpoints, cfg.Shards)
	specs := make([]store.ShardSpec, cfg.Shards)
	for i := range specs {
		specs[i] = store.ShardSpec{
			Scheme:    cfg.scheme(i),
			Structure: cfg.Structure,
			Workers:   cfg.WorkersPerShard,
			Threshold: fleetThreshold,
			Slots:     fleetSlots,
		}
		// Only a faulted run gets injection gates: a gate costs every
		// yield point of every operation a lock round trip, armed or not.
		if len(cfg.Faults) > 0 {
			gates[i] = sched.NewBreakpoints()
			specs[i].Gate = gates[i]
		}
	}
	f := &fleet{cfg: cfg, clock: rec.NewClock()}
	if cfg.Record || cfg.ObsAddr != "" {
		f.recorder = rec.NewRecorder(f.clock, recorderCapacity)
	}
	// A migrating fleet's grace scales with the window: a parked worker
	// never drains anyway, and every ms spent waiting is a ms the shard
	// serves nothing but ErrShardClosed.
	var grace time.Duration
	if cfg.Adapt != nil {
		grace = max(cfg.Duration/16, 10*time.Millisecond)
	}
	st, err := store.New(store.Config{
		Shards: specs, KeyRange: cfg.KeyRange, MigrateGrace: grace, Recorder: f.recorder,
	})
	if err != nil {
		return nil, err
	}
	f.st = st
	if f.src, err = workload.New(workload.Config{
		Dist: cfg.Workload, Schedule: cfg.Schedule, KeyRange: cfg.KeyRange, Mix: cfg.Mix, Seed: cfg.Seed,
	}); err != nil {
		st.Close()
		return nil, err
	}
	// Prefill to half occupancy through the service, like any traffic.
	if err := prefillHalf(st, cfg.KeyRange, cfg.Batch, cfg.Seed); err != nil {
		st.Close()
		return nil, err
	}
	tcfg := telemetry.Config{
		Interval: sampleEvery(cfg.Duration), Capacity: 4096, Clock: f.clock, Recorder: f.recorder,
	}
	if cfg.Adapt != nil || len(cfg.Faults) > 0 {
		if f.mon, err = verdictMonitor(st, f.recorder); err != nil {
			st.Close()
			return nil, err
		}
		tcfg.OnSample = f.mon.Observe
	}
	f.probe = storeProbe(st)
	f.sampler = telemetry.NewSampler(tcfg, func() []telemetry.Point { return f.probe() })
	f.engine = chaos.NewEngine(&chaos.Target{Store: st, Gates: gates, KeyRange: cfg.KeyRange})
	f.engine.SetObs(f.clock, f.recorder)
	return f, nil
}

// budget is the per-shard backlog budget the audits fit against.
func (f *fleet) budget() telemetry.Budget {
	return telemetry.Budget{Threads: f.cfg.WorkersPerShard, Threshold: fleetThreshold}
}

// series snapshots every shard's sampled backlog trajectory.
func (f *fleet) series() [][]telemetry.Point {
	out := make([][]telemetry.Point, f.cfg.Shards)
	for s := range out {
		out[s] = f.sampler.Series(s).Points()
	}
	return out
}

// traffic is what the clients of one window experienced.
type traffic struct {
	tally
	elapsed time.Duration
}

// run drives the window: sampler and engine start, the point-op clients
// batch until the deadline, then the sampler stops. beside, when non-nil,
// runs concurrently with them — the fan-out lane, which must also be done
// by the deadline — and run returns only after it does. Draining the
// store is the caller's.
//
// The engine is stopped at the deadline from a watchdog, independent of
// client progress: clients blocked on a stalled worker only come back
// once the faults heal. atDeadline runs on the watchdog right before the
// heal — the place to freeze a controller and snapshot the evidence
// (stats, series, verdicts): a churn heal reopens its shard with zeroed
// counters, and a stall heal lets the resumed worker collapse the
// backlog, either of which would contaminate the faulted window if read
// afterwards.
func (f *fleet) run(atDeadline func(), beside func(deadline time.Time)) (traffic, error) {
	f.sampler.Start()
	f.engine.Start()
	start := time.Now()
	deadline := start.Add(f.cfg.Duration)
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
	clients := f.cfg.Clients - f.cfg.laneClients()
	t := traffic{tally: runTimedClients(f.st, f.src, clients, f.cfg.Batch, deadline)}
	lane.Wait()
	<-healed
	t.elapsed = time.Since(start)
	f.sampler.Stop()
	return t, t.err
}

// tally is what clients measured: one client's while it runs, the run's
// once runClients merges them.
type tally struct {
	// clients is how many clients the merged tally covers.
	clients int
	// n counts the client's units of work: ops or requests.
	n, partial, errs, sheds uint64
	// lat holds every completion's latency.
	lat hist.Latency
	// submitted holds the fan-out lane's completed requests: when each
	// went in and whether it came back clean.
	submitted []submission
	// err is a harness failure (a closed store, a rejected submit): it
	// ends the client, and the merged tally keeps the first.
	err error
}

// submission is one completed lane request: its submit time on the run
// clock, and whether every leg succeeded.
type submission struct {
	at    time.Duration
	clean bool
}

// runClients runs client(c, t) for c < n, each on its own goroutine with
// its own tally, waits for them all and returns the merged tally.
func runClients(n int, client func(c int, t *tally)) tally {
	tallies := make([]tally, n)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(c, &tallies[c])
		}()
	}
	wg.Wait()
	all := tally{clients: n}
	for i := range tallies {
		t := &tallies[i]
		all.n += t.n
		all.partial += t.partial
		all.errs += t.errs
		all.sheds += t.sheds
		all.lat.Merge(&t.lat)
		all.submitted = append(all.submitted, t.submitted...)
		all.err = cmp.Or(all.err, t.err)
	}
	return all
}

// runTimedClients drives closed-loop clients until deadline, tolerating
// per-operation errors (they are what faults — and migration windows —
// look like from outside): n counts ops, errs the failed ones.
func runTimedClients(st *store.Store, src *workload.Source, clients, batchSize int, deadline time.Time) tally {
	return runClients(clients, func(c int, t *tally) {
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
				t.err = err
				return
			}
			t.lat.Record(time.Since(t0))
			t.n += uint64(len(batch))
			for _, r := range res {
				if r.Err != nil {
					t.errs++
				}
			}
		}
	})
}

// prefillHalf inserts exactly ⌊keyRange/2⌋ distinct keys through the
// service — a seeded sample without replacement, drawn by a partial
// Fisher–Yates shuffle — so contains() hits half the time.
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

// verdictMonitor builds the verdict monitor over the store's resolved
// shard specs: domain i is shard i, with the shard's declared robustness
// class and worker/threshold budget.
func verdictMonitor(st *store.Store, recorder *rec.Recorder) (*telemetry.Monitor, error) {
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
	if recorder == nil {
		return telemetry.NewMonitor(nil, domains), nil
	}
	return telemetry.NewMonitor(obs.VerdictHook(recorder), domains), nil
}

// sampleEvery derives a telemetry tick from a traffic window: ~200
// samples per run, clamped to [200µs, 5ms].
func sampleEvery(d time.Duration) time.Duration {
	return min(max(d/200, 200*time.Microsecond), 5*time.Millisecond)
}
