// EXP-TRAVERSE: the traversal hot-path experiment, in two sections.
//
// Section 1 (storm) reproduces the restart storm of ROADMAP item 5: a
// single long-chain shard (Michael's list over the whole key range)
// under churning clients, once with the legacy head-restart finds
// (ShardSpec.HeadRestart) and once with the bounded cached-pred finds.
// Measured: throughput, request p50/p99, the traversal counters
// (restart rate, head-restart share, worst single-op steps), and the
// peak retired backlog — the quantity a storm balloons by pinning an
// epoch inside one operation bracket.
//
// Section 2 (snapshot) measures MigrateShard's iterator snapshot at a
// large key universe with few live keys: membership probes, carried keys,
// and the wall-clock swap window. The gate is the O(live-keys) contract:
// probes within 2x the live keys.

package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/store"
	"repro/internal/workload"
)

// traverseConfig is what EXP-TRAVERSE varies between its smoke and full
// scale.
type traverseConfig struct {
	// duration is the storm window per arm.
	duration time.Duration
	// churnKeyRange is the storm key universe — the live chain is about
	// half of it.
	churnKeyRange int
	// snapKeyRange is the snapshot section's key universe; snapLiveKeys is
	// how many live keys it prefills, spread evenly over the universe.
	snapKeyRange int
	snapLiveKeys int
	seed         uint64
}

func (p Profile) traverseConfig() traverseConfig {
	if p.Short {
		return traverseConfig{duration: 150 * time.Millisecond, churnKeyRange: 1024,
			snapKeyRange: 100_000, snapLiveKeys: 2000, seed: p.Seed}
	}
	return traverseConfig{duration: 400 * time.Millisecond, churnKeyRange: 4096,
		snapKeyRange: 1_000_000, snapLiveKeys: 10_000, seed: p.Seed}
}

const (
	traverseWorkers = 3
	traverseClients = 4
	traverseBatch   = 16
)

// TraverseStormArm is one storm arm's measurement.
type TraverseStormArm struct {
	// Mode is "head-restart" (baseline) or "bounded".
	Mode       string        `json:"mode"`
	Ops        uint64        `json:"ops"`
	MopsPerSec float64       `json:"mops_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	// Traversal counters over the whole arm (prefill included).
	TravSteps        uint64 `json:"trav_steps"`
	TravRestarts     uint64 `json:"trav_restarts"`
	TravHeadRestarts uint64 `json:"trav_head_restarts"`
	GuardTrips       uint64 `json:"guard_trips"`
	MaxOpSteps       uint64 `json:"max_op_steps"`
	// RestartsPerKOp is the restart rate: traversal restarts per thousand
	// service operations.
	RestartsPerKOp float64 `json:"restarts_per_kop"`
	PeakRetired    uint64  `json:"peak_retired"`
}

// TraverseSnap is the snapshot section's measurement.
type TraverseSnap struct {
	SnapshotProbes uint64        `json:"snapshot_probes"`
	SnapshotKeys   uint64        `json:"snapshot_keys"`
	SwapWindow     time.Duration `json:"swap_window_ns"`
}

// TraverseResult is the full EXP-TRAVERSE measurement.
type TraverseResult struct {
	Workers       int           `json:"workers"`
	Clients       int           `json:"clients"`
	Duration      time.Duration `json:"duration_ns"`
	ChurnKeyRange int           `json:"churn_key_range"`
	SnapKeyRange  int           `json:"snap_key_range"`
	SnapLiveKeys  int           `json:"snap_live_keys"`
	Seed          uint64        `json:"seed"`

	Storm []TraverseStormArm `json:"storm"`
	Snap  TraverseSnap       `json:"snapshot"`

	// ProbesBounded is the O(live-keys) contract: the snapshot's probes
	// stayed within 2x its live keys.
	ProbesBounded bool `json:"snapshot_probes_bounded"`
	// GuardClean reports that no operation in either storm arm hit the
	// traversal step budget.
	GuardClean bool `json:"guard_clean"`
}

// runTraverseStorm runs one storm arm: a single Michael-list shard over
// the whole churn key range, duration-boxed clients, traversal counters
// read after close.
func runTraverseStorm(cfg traverseConfig, headRestart bool) (TraverseStormArm, error) {
	mode := "bounded"
	if headRestart {
		mode = "head-restart"
	}
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:      "ebr",
			Structure:   "michael",
			Workers:     traverseWorkers,
			HeadRestart: headRestart,
		}},
		KeyRange: cfg.churnKeyRange,
	})
	if err != nil {
		return TraverseStormArm{}, err
	}
	defer st.Close()
	src, err := workload.New(workload.Config{
		KeyRange: cfg.churnKeyRange,
		Mix:      MixBalanced,
		Seed:     cfg.seed,
	})
	if err != nil {
		return TraverseStormArm{}, err
	}
	if err := prefillHalf(st, cfg.churnKeyRange, traverseBatch, cfg.seed); err != nil {
		return TraverseStormArm{}, err
	}
	start := time.Now()
	ops, _, lat, err := runTimedClients(st, src, traverseClients, traverseBatch, start.Add(cfg.duration), nil)
	if err != nil {
		return TraverseStormArm{}, err
	}
	elapsed := time.Since(start)
	if err := st.Close(); err != nil {
		return TraverseStormArm{}, err
	}
	s := st.Stats()
	arm := TraverseStormArm{
		Mode:             mode,
		Ops:              ops,
		MopsPerSec:       float64(ops) / elapsed.Seconds() / 1e6,
		P50:              lat.Percentile(0.50),
		P99:              lat.Percentile(0.99),
		TravSteps:        s.TravSteps,
		TravRestarts:     s.TravRestarts,
		TravHeadRestarts: s.TravHeadRestarts,
		GuardTrips:       s.GuardTrips,
		MaxOpSteps:       s.MaxOpSteps,
		PeakRetired:      s.MaxRetired,
	}
	if ops > 0 {
		arm.RestartsPerKOp = float64(s.TravRestarts) / float64(ops) * 1000
	}
	return arm, nil
}

// runTraverseSnap prefills snapLiveKeys evenly over snapKeyRange on a
// hashmap shard sized for the live keys (not the universe — the point),
// migrates it onto the same scheme, and reads the migration cost
// observables.
func runTraverseSnap(cfg traverseConfig) (TraverseSnap, error) {
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:    "ebr",
			Structure: "hashmap",
			Slots:     4*cfg.snapLiveKeys + 8192,
		}},
		KeyRange: cfg.snapKeyRange,
	})
	if err != nil {
		return TraverseSnap{}, err
	}
	defer st.Close()
	stride := max(cfg.snapKeyRange/cfg.snapLiveKeys, 1)
	batch := make([]store.Op, 0, traverseBatch)
	for i := 0; i < cfg.snapLiveKeys; i++ {
		batch = append(batch, store.Op{Kind: workload.OpInsert, Key: int64(i * stride)})
		if len(batch) < traverseBatch && i < cfg.snapLiveKeys-1 {
			continue
		}
		res, err := st.Do(batch)
		if err != nil {
			return TraverseSnap{}, err
		}
		for _, r := range res {
			if r.Err != nil {
				return TraverseSnap{}, r.Err
			}
		}
		batch = batch[:0]
	}
	if err := st.MigrateShard(0, "ebr"); err != nil {
		return TraverseSnap{}, fmt.Errorf("bench: traverse snapshot: %w", err)
	}
	ss := st.Stats().Shards[0]
	return TraverseSnap{
		SnapshotProbes: ss.SnapshotProbes,
		SnapshotKeys:   ss.SnapshotKeys,
		SwapWindow:     time.Duration(ss.SwapWindowNanos),
	}, nil
}

// runTraverse runs both sections of EXP-TRAVERSE, the storm's baseline
// arm first.
func runTraverse(p Profile) (Result, error) {
	cfg := p.traverseConfig()
	res := TraverseResult{
		Workers:       traverseWorkers,
		Clients:       traverseClients,
		Duration:      cfg.duration,
		ChurnKeyRange: cfg.churnKeyRange,
		SnapKeyRange:  cfg.snapKeyRange,
		SnapLiveKeys:  cfg.snapLiveKeys,
		Seed:          cfg.seed,
		GuardClean:    true,
	}
	for _, headRestart := range []bool{true, false} {
		arm, err := runTraverseStorm(cfg, headRestart)
		if err != nil {
			return nil, err
		}
		res.Storm = append(res.Storm, arm)
		if arm.GuardTrips != 0 {
			res.GuardClean = false
		}
	}
	var err error
	if res.Snap, err = runTraverseSnap(cfg); err != nil {
		return nil, err
	}
	res.ProbesBounded = res.Snap.SnapshotProbes <= 2*res.Snap.SnapshotKeys
	return res, nil
}

// Gates: the snapshot's probes track its live keys, and no storm
// operation tripped the traversal step-budget guard.
func (res TraverseResult) Gates() []Gate {
	var trips uint64
	for _, arm := range res.Storm {
		trips += arm.GuardTrips
	}
	return []Gate{
		{Name: "snapshot_probes_bounded", OK: res.ProbesBounded,
			Detail: fmt.Sprintf("snapshot probed %d for %d live keys, want <= 2x", res.Snap.SnapshotProbes, res.Snap.SnapshotKeys)},
		{Name: "guard_clean", OK: res.GuardClean,
			Detail: fmt.Sprintf("%d traversal guard trip(s) under the churn storm", trips)},
	}
}

// WriteTable renders EXP-TRAVERSE: the storm arms, the snapshot, then the
// headlines.
func (res TraverseResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-13s %10s %10s %10s %10s %11s %8s %13s %11s %13s\n",
		"storm-arm", "ops", "Mops/s", "p50", "p99", "restarts/kop", "head-rs", "max-op-steps", "guard-trips", "peak-retired")
	for _, a := range res.Storm {
		fmt.Fprintf(w, "%-13s %10d %10.3f %10s %10s %11.3f %8d %13d %11d %13d\n",
			a.Mode, a.Ops, a.MopsPerSec, fmtLatency(a.P50), fmtLatency(a.P99),
			a.RestartsPerKOp, a.TravHeadRestarts, a.MaxOpSteps, a.GuardTrips, a.PeakRetired)
	}
	fmt.Fprintf(w, "snapshot: %d probes for %d live keys, swap window %s\n",
		res.Snap.SnapshotProbes, res.Snap.SnapshotKeys, res.Snap.SwapWindow.Round(time.Microsecond))
	fmt.Fprintf(w, "aggregate: %d workers, %d clients, %s window, churn keyrange %d, snapshot %d universe / %d live, seed %d\n",
		res.Workers, res.Clients, res.Duration, res.ChurnKeyRange, res.SnapKeyRange, res.SnapLiveKeys, res.Seed)
	fmt.Fprintf(w, "           probes bounded: %v, guard clean: %v\n", res.ProbesBounded, res.GuardClean)
}
