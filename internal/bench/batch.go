// EXP-BATCH: the batch-fusion experiment. Three sections over the same
// single-shard Michael-list deployment:
//
// Section 1 (throughput) A/Bs the fused hot path against the per-op
// baseline: for each scheme × client batch size, the same churn workload
// runs once with batch fusion (one amortized SMR bracket per request,
// key-sorted execution, cross-op predecessor reuse) and once with
// ShardSpec.NoFuse (every op under its own BeginOp/EndOp bracket).
// Measured: throughput, request p50/p99, and the fused-window counters;
// the headline is the best fused/per-op ratio (the acceptance bar is
// >= 1.15x at batch >= 16).
//
// Section 2 (allocs) measures steady-state allocations on the
// zero-alloc request spine: a warmed DoInto loop with a reused result
// slice on a contains-only stream, mallocs read before and after with GC
// parked so pool evictions cannot masquerade as serving-path churn. The
// headline is allocs per DoInto call — the acceptance bar is zero.
//
// Section 3 (backlog) is the robustness guard: for each scheme, a
// two-worker shard has one worker parked at a traversal breakpoint for a
// fixed window while the other serves fused (resp. per-op) traffic. The
// fused window's K-op bracket cadence must keep the peak retired backlog
// within 2x of the per-op arm's — amortization must not buy throughput
// by silently widening the reclamation pin.

package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/ds"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workload"
)

// batchConfig is what EXP-BATCH varies between its smoke and full scale.
type batchConfig struct {
	// duration is the traffic window per throughput arm; stall the
	// parked-worker window per backlog arm.
	duration time.Duration
	stall    time.Duration
	// batches is the client batch sizes swept; schemes the scheme list for
	// the throughput and backlog sections — at full scale one
	// representative per reclamation family (epoch, pointer, version).
	batches []int
	schemes []string
	// keyRange is the key universe (the live chain is about half of it).
	keyRange int
	// allocRounds is the measured DoInto call count in the allocation
	// section.
	allocRounds int
	seed        uint64
}

func (p Profile) batchConfig() batchConfig {
	if p.Short {
		return batchConfig{duration: 150 * time.Millisecond, stall: 150 * time.Millisecond,
			batches: []int{16}, schemes: []string{"ebr", "hp"}, keyRange: 1024, allocRounds: 500, seed: p.Seed}
	}
	return batchConfig{duration: 300 * time.Millisecond, stall: 250 * time.Millisecond,
		batches: []int{16, 64}, schemes: []string{"ebr", "hp", "vbr"}, keyRange: 4096, allocRounds: 2000, seed: p.Seed}
}

const (
	// batchWorkers is the shard's worker count: in the backlog section one
	// parks and one serves.
	batchWorkers = 2
	batchClients = 4
)

// BatchArm is one throughput arm's measurement.
type BatchArm struct {
	// Mode is "fused" or "per-op" (the ShardSpec.NoFuse baseline).
	Mode       string        `json:"mode"`
	Ops        uint64        `json:"ops"`
	MopsPerSec float64       `json:"mops_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	// Fused-window counters (zero on the per-op arm).
	FusedBatches uint64 `json:"fused_batches"`
	FusedOps     uint64 `json:"fused_ops"`
	Rebrackets   uint64 `json:"rebrackets"`
	BatchSorts   uint64 `json:"batch_sorts"`
}

// BatchPair is one scheme × batch-size A/B: the fused arm, the per-op
// arm, and their throughput ratio.
type BatchPair struct {
	Scheme string   `json:"scheme"`
	Batch  int      `json:"batch"`
	Fused  BatchArm `json:"fused"`
	Serial BatchArm `json:"serial"`
	// Ratio is fused over per-op throughput.
	Ratio float64 `json:"ratio"`
}

// BatchAllocs is the allocation section's measurement.
type BatchAllocs struct {
	// Rounds is the measured DoInto call count, Batch the ops per call.
	Rounds int `json:"rounds"`
	Batch  int `json:"batch"`
	// AllocsPerOp is mallocs per DoInto call over the measured window
	// (process-wide, so shard-worker allocations count too).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// ZeroAlloc is the headline, under testing.B's integer-division
	// convention (MemAllocsPerOp == 0): the serving path itself must not
	// allocate, while one-time runtime residue — a sync.Pool pinning a
	// per-P local the first time a migrated worker touches it — rounds
	// away just as it does in `go test -benchmem`.
	ZeroAlloc bool `json:"zero_alloc"`
}

// BatchBacklogArm is one parked-worker arm's measurement.
type BatchBacklogArm struct {
	Mode        string `json:"mode"`
	Ops         uint64 `json:"ops"`
	PeakRetired uint64 `json:"peak_retired"`
}

// BatchBacklogPair is one scheme's parked-worker A/B and its verdict.
type BatchBacklogPair struct {
	Scheme string          `json:"scheme"`
	Fused  BatchBacklogArm `json:"fused"`
	Serial BatchBacklogArm `json:"serial"`
	// Bounded reports the robustness guard: the fused arm's peak retired
	// backlog stayed within 2x the per-op arm's (plus a small absolute
	// floor so near-zero baselines don't flake the ratio).
	Bounded bool `json:"bounded"`
}

// backlogFloor absorbs scheduling noise when the per-op baseline's peak
// backlog is tiny (a few retire-list entries): the 2x bound is a growth
// argument, not a claim about sub-threshold jitter.
const backlogFloor = 64

// BatchResult is the full EXP-BATCH measurement.
type BatchResult struct {
	Workers       int           `json:"workers"`
	Clients       int           `json:"clients"`
	Duration      time.Duration `json:"duration_ns"`
	KeyRange      int           `json:"key_range"`
	StallDuration time.Duration `json:"stall_duration_ns"`
	Seed          uint64        `json:"seed"`

	Pairs   []BatchPair        `json:"pairs"`
	Allocs  BatchAllocs        `json:"allocs"`
	Backlog []BatchBacklogPair `json:"backlog"`

	// BestRatio is the throughput headline: the best fused/per-op ratio
	// across the sweep (the acceptance bar is >= 1.15 at batch >= 16).
	BestRatio float64 `json:"best_ratio"`
	// FusedBeatsSerial reports BestRatio >= 1.15.
	FusedBeatsSerial bool `json:"fused_beats_serial"`
	// ZeroAlloc mirrors the allocation section's headline.
	ZeroAlloc bool `json:"zero_alloc"`
	// BacklogBounded reports every scheme's parked-worker pair held the
	// 2x bound.
	BacklogBounded bool `json:"backlog_bounded"`
}

// runBatchArm runs one throughput arm: a single Michael-list shard over
// the whole key range, duration-boxed clients, fused-window counters read
// after close.
func runBatchArm(cfg batchConfig, scheme string, batch int, nofuse bool) (BatchArm, error) {
	mode := "fused"
	if nofuse {
		mode = "per-op"
	}
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:    scheme,
			Structure: "michael",
			Workers:   batchWorkers,
			NoFuse:    nofuse,
		}},
		KeyRange: cfg.keyRange,
	})
	if err != nil {
		return BatchArm{}, err
	}
	defer st.Close()
	src, err := workload.New(workload.Config{
		KeyRange: cfg.keyRange,
		Mix:      MixBalanced,
		Seed:     cfg.seed,
	})
	if err != nil {
		return BatchArm{}, err
	}
	if err := prefillHalf(st, cfg.keyRange, batch, cfg.seed); err != nil {
		return BatchArm{}, err
	}
	start := time.Now()
	ops, _, lat, err := runTimedClients(st, src, batchClients, batch, start.Add(cfg.duration), nil)
	if err != nil {
		return BatchArm{}, err
	}
	elapsed := time.Since(start)
	if err := st.Close(); err != nil {
		return BatchArm{}, err
	}
	s := st.Stats()
	return BatchArm{
		Mode:         mode,
		Ops:          ops,
		MopsPerSec:   float64(ops) / elapsed.Seconds() / 1e6,
		P50:          lat.Percentile(0.50),
		P99:          lat.Percentile(0.99),
		FusedBatches: s.FusedBatches,
		FusedOps:     s.FusedOps,
		Rebrackets:   s.Rebrackets,
		BatchSorts:   s.BatchSorts,
	}, nil
}

// runBatchAllocs measures the zero-alloc claim: a warmed DoInto loop on
// a contains-only batch with a reused result slice, process-wide mallocs
// differenced around the window. Contains-only keeps the structure and
// retire lists quiescent, so every malloc the window sees belongs to the
// request spine — the thing the claim is about. GC is parked for the
// window so a collection cannot evict the request/spine pools mid-count.
func runBatchAllocs(cfg batchConfig) (BatchAllocs, error) {
	const batch = 64
	st, err := store.New(store.Config{
		Shards:   []store.ShardSpec{{Scheme: "ebr", Structure: "michael", Workers: batchWorkers}},
		KeyRange: cfg.keyRange,
	})
	if err != nil {
		return BatchAllocs{}, err
	}
	defer st.Close()
	if err := prefillHalf(st, cfg.keyRange, batch, cfg.seed); err != nil {
		return BatchAllocs{}, err
	}
	rng := workload.RNG(cfg.seed ^ 0xbeef)
	ops := make([]store.Op, batch)
	for i := range ops {
		ops[i] = store.Op{Kind: workload.OpContains, Key: int64(rng.Next() % uint64(cfg.keyRange))}
	}
	res := make([]store.Result, batch)
	do := func(n int) error {
		for i := 0; i < n; i++ {
			if err := st.DoInto(ops, res); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm the pools and the worker scratch past their growth phase.
	if err := do(256); err != nil {
		return BatchAllocs{}, err
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := do(cfg.allocRounds); err != nil {
		return BatchAllocs{}, err
	}
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	return BatchAllocs{
		Rounds:      cfg.allocRounds,
		Batch:       batch,
		AllocsPerOp: float64(mallocs) / float64(cfg.allocRounds),
		BytesPerOp:  float64(bytes) / float64(cfg.allocRounds),
		ZeroAlloc:   mallocs/uint64(cfg.allocRounds) == 0,
	}, nil
}

// runBatchBacklog runs one parked-worker arm: a two-worker gated shard,
// worker 0 parked at the traversal head breakpoint for the whole window,
// the surviving worker serving batched traffic. The stall releases at
// the deadline so the client blocked on the parked worker's request can
// drain and the shard closes clean.
func runBatchBacklog(cfg batchConfig, scheme string, nofuse bool) (BatchBacklogArm, error) {
	mode := "fused"
	if nofuse {
		mode = "per-op"
	}
	bp := sched.NewBreakpoints()
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:    scheme,
			Structure: "michael",
			Workers:   batchWorkers,
			Gate:      bp,
			NoFuse:    nofuse,
		}},
		KeyRange: cfg.keyRange,
	})
	if err != nil {
		return BatchBacklogArm{}, err
	}
	defer st.Close()
	src, err := workload.New(workload.Config{
		KeyRange: cfg.keyRange,
		Mix:      MixBalanced,
		Seed:     cfg.seed,
	})
	if err != nil {
		return BatchBacklogArm{}, err
	}
	batch := 32
	if err := prefillHalf(st, cfg.keyRange, batch, cfg.seed); err != nil {
		return BatchBacklogArm{}, err
	}
	stall := bp.Arm(0, ds.PointSearchHead, nil, 0)
	timer := time.AfterFunc(cfg.stall, stall.Release)
	defer timer.Stop()
	ops, _, _, err := runTimedClients(st, src, 2, batch, time.Now().Add(cfg.stall), nil)
	stall.Release() // idempotent: frees the worker if the timer lost a race
	if err != nil {
		return BatchBacklogArm{}, err
	}
	if err := st.Close(); err != nil {
		return BatchBacklogArm{}, err
	}
	return BatchBacklogArm{
		Mode:        mode,
		Ops:         ops,
		PeakRetired: st.Stats().MaxRetired,
	}, nil
}

// runBatch runs all three sections of EXP-BATCH, baseline arms last so
// each pair reads fused-first in the artifact.
func runBatch(p Profile) (Result, error) {
	cfg := p.batchConfig()
	res := BatchResult{
		Workers:       batchWorkers,
		Clients:       batchClients,
		Duration:      cfg.duration,
		KeyRange:      cfg.keyRange,
		StallDuration: cfg.stall,
		Seed:          cfg.seed,
	}
	for _, scheme := range cfg.schemes {
		for _, batch := range cfg.batches {
			fused, err := runBatchArm(cfg, scheme, batch, false)
			if err != nil {
				return nil, err
			}
			serial, err := runBatchArm(cfg, scheme, batch, true)
			if err != nil {
				return nil, err
			}
			pair := BatchPair{Scheme: scheme, Batch: batch, Fused: fused, Serial: serial}
			if serial.MopsPerSec > 0 {
				pair.Ratio = fused.MopsPerSec / serial.MopsPerSec
			}
			res.BestRatio = max(res.BestRatio, pair.Ratio)
			res.Pairs = append(res.Pairs, pair)
		}
	}
	allocs, err := runBatchAllocs(cfg)
	if err != nil {
		return nil, err
	}
	res.Allocs = allocs
	res.BacklogBounded = true
	for _, scheme := range cfg.schemes {
		fused, err := runBatchBacklog(cfg, scheme, false)
		if err != nil {
			return nil, err
		}
		serial, err := runBatchBacklog(cfg, scheme, true)
		if err != nil {
			return nil, err
		}
		pair := BatchBacklogPair{Scheme: scheme, Fused: fused, Serial: serial}
		pair.Bounded = fused.PeakRetired <= 2*serial.PeakRetired+backlogFloor
		if !pair.Bounded {
			res.BacklogBounded = false
		}
		res.Backlog = append(res.Backlog, pair)
	}
	res.FusedBeatsSerial = res.BestRatio >= 1.15
	res.ZeroAlloc = allocs.ZeroAlloc
	return res, nil
}

// Gates: the fused path must beat the per-op baseline, the steady-state
// spine must not allocate, and amortization must not widen the
// parked-worker backlog past 2x.
func (res BatchResult) Gates() []Gate {
	backlog := Gate{Name: "backlog_bounded", OK: res.BacklogBounded}
	for _, p := range res.Backlog {
		if !p.Bounded {
			backlog.Detail = fmt.Sprintf("%s fused peak retired backlog %d exceeds 2x per-op %d under a parked worker",
				p.Scheme, p.Fused.PeakRetired, p.Serial.PeakRetired)
			break
		}
	}
	return []Gate{
		{Name: "fused_beats_serial", OK: res.FusedBeatsSerial,
			Detail: fmt.Sprintf("best fused/per-op ratio %.3f below the 1.15x bar", res.BestRatio)},
		{Name: "zero_alloc", OK: res.ZeroAlloc,
			Detail: fmt.Sprintf("steady-state DoInto allocated %.2f allocs/call (%.1f B/call); the spine must be zero-alloc",
				res.Allocs.AllocsPerOp, res.Allocs.BytesPerOp)},
		backlog,
	}
}

// WriteTable renders EXP-BATCH: the throughput pairs, the allocation
// section, the parked-worker backlog pairs, then the headlines.
func (res BatchResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-7s %6s %-7s %10s %10s %10s %10s %9s %11s %11s %7s\n",
		"scheme", "batch", "arm", "ops", "Mops/s", "p50", "p99", "fused", "rebrackets", "sorts", "ratio")
	for _, p := range res.Pairs {
		for _, a := range []BatchArm{p.Fused, p.Serial} {
			ratio := ""
			if a.Mode == "fused" {
				ratio = fmt.Sprintf("%.2fx", p.Ratio)
			}
			fmt.Fprintf(w, "%-7s %6d %-7s %10d %10.3f %10s %10s %9d %11d %11d %7s\n",
				p.Scheme, p.Batch, a.Mode, a.Ops, a.MopsPerSec, fmtLatency(a.P50), fmtLatency(a.P99),
				a.FusedBatches, a.Rebrackets, a.BatchSorts, ratio)
		}
	}
	fmt.Fprintf(w, "allocs: %d DoInto calls × batch %d: %.2f allocs/call, %.1f B/call (zero-alloc: %v)\n",
		res.Allocs.Rounds, res.Allocs.Batch, res.Allocs.AllocsPerOp, res.Allocs.BytesPerOp, res.Allocs.ZeroAlloc)
	fmt.Fprintf(w, "%-7s %-22s %-22s %8s\n", "scheme", "fused peak-retired/ops", "per-op peak-retired/ops", "bounded")
	for _, p := range res.Backlog {
		fmt.Fprintf(w, "%-7s %-22s %-22s %8v\n", p.Scheme,
			fmt.Sprintf("%d / %d", p.Fused.PeakRetired, p.Fused.Ops),
			fmt.Sprintf("%d / %d", p.Serial.PeakRetired, p.Serial.Ops),
			p.Bounded)
	}
	fmt.Fprintf(w, "aggregate: %d workers, %d clients, %s window, keyrange %d, stall %s, seed %d\n",
		res.Workers, res.Clients, res.Duration, res.KeyRange, res.StallDuration, res.Seed)
	fmt.Fprintf(w, "           best ratio %.2fx (fused beats serial: %v), zero-alloc: %v, backlog bounded: %v\n",
		res.BestRatio, res.FusedBeatsSerial, res.ZeroAlloc, res.BacklogBounded)
}
