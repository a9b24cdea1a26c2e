package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/hist"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/workload"
)

// ThroughputConfig sizes a throughput run.
type ThroughputConfig struct {
	Threads      int
	OpsPerThread int
	KeyRange     int
	Mix          Mix
	Seed         uint64

	// Workload names the key distribution driving the run ("uniform",
	// "zipfian", "hotset", "shifting"); empty selects uniform.
	Workload string
	// Schedule names the op-mix schedule ("steady", "phased", "oversub");
	// empty selects steady around Mix.
	Schedule string
}

// latencySample times every n-th operation: sparse enough that clock
// reads don't dominate a fast structure, and coprime to the oversub
// schedule's yield period so post-yield ops aren't systematically
// over-sampled.
const latencySample = 5

// ThroughputRow is one measurement of the throughput experiment.
type ThroughputRow struct {
	Scheme    string `json:"scheme"`
	Structure string `json:"structure"`
	Threads   int    `json:"threads"`
	Mix       Mix    `json:"mix"`
	// Workload and Schedule name the key distribution and op-mix schedule
	// that drove the run.
	Workload string        `json:"workload"`
	Schedule string        `json:"schedule"`
	KeyRange int           `json:"key_range"`
	Ops      int           `json:"ops"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// MopsPerSec is the headline number.
	MopsPerSec float64 `json:"mops_per_sec"`
	// P50 and P99 are operation latency percentiles over the sampled ops.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// PeakRetired is the largest retired backlog over the whole run
	// (prefill and warmup included — the backlog is cumulative state that
	// carries into the measured phase, so the whole-run peak is the honest
	// space cost accompanying the throughput).
	PeakRetired uint64 `json:"peak_retired"`
	// Restarts counts scheme rollbacks during the measured phase only (the
	// integration price of the optimistic schemes).
	Restarts uint64 `json:"restarts"`
}

// engine is one assembled throughput experiment: arena, scheme, structure
// and workload source, ready to run phases.
type engine struct {
	cfg   ThroughputConfig
	arena *mem.Arena
	s     smr.Scheme
	set   ds.Set
	src   *workload.Source
}

// newEngine resolves names and sizes the simulated heap. The heap is sized
// for the worst case: a non-robust scheme under oversubscription can delay
// reclamation for a whole scheduling quantum, and the leak baseline never
// reclaims at all — so the allocation upper bound (prefill + every op of
// warmup and measurement an insert) must fit.
func newEngine(scheme, structure string, cfg ThroughputConfig) (*engine, error) {
	info, err := registry.Get(structure)
	if err != nil {
		return nil, err
	}
	if info.Kind != registry.KindSet {
		return nil, fmt.Errorf("bench: throughput runs on set structures, %s is a %v", structure, info.Kind)
	}
	src, err := workload.New(workload.Config{
		Dist:     cfg.Workload,
		Schedule: cfg.Schedule,
		KeyRange: cfg.KeyRange,
		Mix:      cfg.Mix,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	slots := cfg.KeyRange + cfg.Threads*(cfg.OpsPerThread+warmupOps(cfg)) + 1024
	a := mem.NewArena(mem.Config{
		Slots:        slots,
		PayloadWords: info.PayloadWords,
		MetaWords:    smr.MetaWords,
		Threads:      cfg.Threads,
		Mode:         mem.Reuse,
	})
	s, err := all.New(scheme, a, cfg.Threads, 0)
	if err != nil {
		return nil, err
	}
	set, err := info.NewSet(s, ds.Options{})
	if err != nil {
		return nil, err
	}
	return &engine{cfg: cfg, arena: a, s: s, set: set, src: src}, nil
}

// warmupOps is the untimed per-thread warmup run before measurement.
func warmupOps(cfg ThroughputConfig) int { return cfg.OpsPerThread / 10 }

// prefill inserts random keys until the set holds about half the key range,
// so contains() hits about half the time.
func (e *engine) prefill() error {
	pre := workload.RNG(e.cfg.Seed ^ 0xf00d)
	for i := 0; i < e.cfg.KeyRange/2; i++ {
		if _, err := e.set.Insert(0, int64(pre.Next()%uint64(e.cfg.KeyRange))); err != nil {
			return err
		}
	}
	return nil
}

// runPhase drives ops operations per thread from src, one stream per
// thread. When lats is non-nil, thread tid records every latencySample-th
// operation's latency into lats[tid].
func (e *engine) runPhase(src *workload.Source, ops int, lats []hist.Latency) error {
	var wg sync.WaitGroup
	errs := make([]error, e.cfg.Threads)
	for tid := 0; tid < e.cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			stream := src.Thread(tid, ops)
			var lat *hist.Latency
			if lats != nil {
				lat = &lats[tid]
			}
			for i := 0; i < ops; i++ {
				op, key := stream.Next()
				timed := lat != nil && i%latencySample == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				var err error
				switch op {
				case workload.OpContains:
					_, err = e.set.Contains(tid, key)
				case workload.OpInsert:
					_, err = e.set.Insert(tid, key)
				default:
					_, err = e.set.Delete(tid, key)
				}
				if err != nil {
					errs[tid] = err
					return
				}
				if timed {
					lat.Record(time.Since(t0))
				}
			}
		}(tid)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes warmup then the timed measurement phase and assembles the
// row.
func (e *engine) run(scheme, structure string) (ThroughputRow, error) {
	if err := e.prefill(); err != nil {
		return ThroughputRow{}, err
	}
	if w := warmupOps(e.cfg); w > 0 {
		// Warmup draws from a derived steady source so the measured phase
		// sees the schedule's full trajectory from its first operation.
		if err := e.runPhase(e.src.Steady(e.cfg.Seed^0xbadcafe), w, nil); err != nil {
			return ThroughputRow{}, err
		}
	}
	lats := make([]hist.Latency, e.cfg.Threads)
	restartsBefore := e.s.Stats().Snapshot().Restarts
	start := time.Now()
	if err := e.runPhase(e.src, e.cfg.OpsPerThread, lats); err != nil {
		return ThroughputRow{}, err
	}
	elapsed := time.Since(start)
	var lat hist.Latency
	for i := range lats {
		lat.Merge(&lats[i])
	}
	ops := e.cfg.Threads * e.cfg.OpsPerThread
	srcCfg := e.src.Config()
	return ThroughputRow{
		Scheme:      scheme,
		Structure:   structure,
		Threads:     e.cfg.Threads,
		Mix:         srcCfg.Mix,
		Workload:    srcCfg.Dist,
		Schedule:    srcCfg.Schedule,
		KeyRange:    e.cfg.KeyRange,
		Ops:         ops,
		Elapsed:     elapsed,
		MopsPerSec:  float64(ops) / elapsed.Seconds() / 1e6,
		P50:         lat.Percentile(0.50),
		P99:         lat.Percentile(0.99),
		PeakRetired: e.arena.Stats().MaxRetired(),
		Restarts:    e.s.Stats().Snapshot().Restarts - restartsBefore,
	}, nil
}

// Throughput runs the workload-driven concurrent experiment for one
// (scheme, structure) pair and reports the rate with its latency
// percentiles and space cost.
func Throughput(scheme, structure string, cfg ThroughputConfig) (ThroughputRow, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 2
	}
	if cfg.OpsPerThread <= 0 {
		cfg.OpsPerThread = 20000
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1024
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixBalanced
	}
	e, err := newEngine(scheme, structure, cfg)
	if err != nil {
		return ThroughputRow{}, err
	}
	return e.run(scheme, structure)
}
