package store

// ShardStats is one shard's service-level counters: the striped op
// counters aggregated on read, plus the shard's heap and scheme counters.
// Ops/Hits/Errs are cumulative over the shard's lifetime; rate reporting
// belongs to the driver, which differences snapshots around its timed
// window.
type ShardStats struct {
	Shard int `json:"shard"`
	// Scheme is the shard's *current* reclamation scheme, read from the
	// live scheme instance — after a MigrateShard swap it names the
	// migrated-to scheme, not the spec the shard was deployed with.
	Scheme    string `json:"scheme"`
	Structure string `json:"structure"`
	Workers   int    `json:"workers"`
	// Epoch counts the slot's incarnations (0 = original build; each
	// reopen or migration swap increments it); Migrations counts
	// completed live scheme migrations. Counters above this line reset
	// with each incarnation, so an Epoch bump explains an Ops regression.
	Epoch      uint64 `json:"epoch"`
	Migrations uint64 `json:"migrations"`

	// Service counters (striped per worker, summed here).
	Ops  uint64 `json:"ops"`
	Hits uint64 `json:"hits"`
	Errs uint64 `json:"errs"`

	// Batch-fusion counters. FusedBatches counts request batches served
	// under one amortized SMR bracket, FusedOps the operations inside
	// them, Rebrackets the mid-window epoch/slot renewals the K-cadence
	// forced, and BatchSorts the batches the worker had to key-sort
	// before fusing (pre-sorted submissions skip the sort).
	FusedBatches uint64 `json:"fused_batches"`
	FusedOps     uint64 `json:"fused_ops"`
	Rebrackets   uint64 `json:"rebrackets"`
	BatchSorts   uint64 `json:"batch_sorts"`

	// Heap counters: the retired backlog is the robustness observable,
	// the fault/unsafe counters the safety observable. MaxActive is the
	// paper's max_active — the budget the robustness definitions bound
	// the backlog by.
	Retired        uint64 `json:"retired"`
	MaxRetired     uint64 `json:"max_retired"`
	MaxActive      uint64 `json:"max_active"`
	Faults         uint64 `json:"faults"`
	UnsafeAccesses uint64 `json:"unsafe_accesses"`
	Violations     uint64 `json:"violations"`
	// OOMs counts failed allocations: a backlog that exhausts the shard
	// heap is the robustness failure made concrete.
	OOMs uint64 `json:"ooms"`

	// Scheme counters.
	Restarts  uint64 `json:"restarts"`
	StaleUses uint64 `json:"stale_uses"`

	// Traversal counters (ds.TravSnapshot): the hot-path observables the
	// bounded-restart overhaul adds. TravRestarts counts every traversal
	// restart, GuardTrips the operations aborted at the maxSteps budget,
	// and MaxOpSteps is the worst single-operation traversal — the p99
	// proxy the restart-storm regression bounds.
	TravSteps    uint64 `json:"trav_steps"`
	TravRestarts uint64 `json:"trav_restarts"`
	GuardTrips   uint64 `json:"guard_trips"`
	MaxOpSteps   uint64 `json:"max_op_steps"`

	// Last completed migration's cost observables (zero until the slot
	// migrates): membership probes the snapshot issued, live keys it
	// carried, and how long clients saw ErrShardClosed. With the iterator
	// snapshot, SnapshotProbes tracks SnapshotKeys instead of KeyRange.
	SnapshotProbes  uint64 `json:"snapshot_probes"`
	SnapshotKeys    uint64 `json:"snapshot_keys"`
	SwapWindowNanos int64  `json:"swap_window_nanos"`
}

// Stats is the service-level view: every shard's counters plus their
// aggregate. Like mem.Stats, nothing is maintained centrally — the
// aggregate is computed on read from the per-worker stripes, so the
// serving path never touches shared counters.
type Stats struct {
	Shards []ShardStats `json:"shards"`

	Ops            uint64 `json:"ops"`
	Hits           uint64 `json:"hits"`
	Errs           uint64 `json:"errs"`
	FusedBatches   uint64 `json:"fused_batches"`
	FusedOps       uint64 `json:"fused_ops"`
	Rebrackets     uint64 `json:"rebrackets"`
	BatchSorts     uint64 `json:"batch_sorts"`
	Retired        uint64 `json:"retired"`
	MaxRetired     uint64 `json:"max_retired"`
	MaxActive      uint64 `json:"max_active"`
	Faults         uint64 `json:"faults"`
	UnsafeAccesses uint64 `json:"unsafe_accesses"`
	Violations     uint64 `json:"violations"`
	OOMs           uint64 `json:"ooms"`
	Restarts       uint64 `json:"restarts"`
	StaleUses      uint64 `json:"stale_uses"`
	Migrations     uint64 `json:"migrations"`

	// Traversal aggregate: sums across shards, except MaxOpSteps which is
	// the store-wide worst single operation.
	TravSteps    uint64 `json:"trav_steps"`
	TravRestarts uint64 `json:"trav_restarts"`
	GuardTrips   uint64 `json:"guard_trips"`
	MaxOpSteps   uint64 `json:"max_op_steps"`
}

// Stats aggregates every shard's counters on read. Safe to call while
// the store serves; counters are individually atomic, so the snapshot has
// the usual mid-run slack and is exact at quiescence. The read lock
// orders the shard-slice read against reopen/migration swaps, so every
// row is internally consistent: a row describes exactly one incarnation
// (its Scheme, Epoch, and counters all belong together), never a blend
// of the outgoing and incoming shard.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var s Stats
	s.Shards = make([]ShardStats, 0, len(st.shards))
	for i, sh := range st.shards {
		ss := sh.stats()
		ss.Epoch = st.meta[i].epoch
		ss.Migrations = st.meta[i].migrations
		ss.SnapshotProbes = st.meta[i].snapshotProbes
		ss.SnapshotKeys = st.meta[i].snapshotKeys
		ss.SwapWindowNanos = st.meta[i].swapWindow.Nanoseconds()
		s.Shards = append(s.Shards, ss)
		s.Ops += ss.Ops
		s.Hits += ss.Hits
		s.Errs += ss.Errs
		s.FusedBatches += ss.FusedBatches
		s.FusedOps += ss.FusedOps
		s.Rebrackets += ss.Rebrackets
		s.BatchSorts += ss.BatchSorts
		s.Retired += ss.Retired
		s.MaxRetired += ss.MaxRetired
		s.MaxActive += ss.MaxActive
		s.Faults += ss.Faults
		s.UnsafeAccesses += ss.UnsafeAccesses
		s.Violations += ss.Violations
		s.OOMs += ss.OOMs
		s.Restarts += ss.Restarts
		s.StaleUses += ss.StaleUses
		s.Migrations += ss.Migrations
		s.TravSteps += ss.TravSteps
		s.TravRestarts += ss.TravRestarts
		s.GuardTrips += ss.GuardTrips
		if ss.MaxOpSteps > s.MaxOpSteps {
			s.MaxOpSteps = ss.MaxOpSteps
		}
	}
	return s
}

// ShardGauges is the telemetry tap: the per-shard level gauges and
// watermarks the robustness audit samples on every tick, plus the shard's
// operation progress. Unlike ShardStats it reads only the global gauges
// and the op stripes — no scheme snapshot, no error/hit aggregation — so
// a millisecond-tick sampler stays off the serving path's cache lines.
type ShardGauges struct {
	Shard      int    `json:"shard"`
	Ops        uint64 `json:"ops"`
	Retired    uint64 `json:"retired"`
	MaxRetired uint64 `json:"max_retired"`
	Active     uint64 `json:"active"`
	MaxActive  uint64 `json:"max_active"`
	// Traversal gauges: cumulative steps and restarts plus guard trips,
	// so the monitor can spot a restart storm (restart rate spiking while
	// op progress stalls) as it happens, not post-mortem.
	TravSteps    uint64 `json:"trav_steps"`
	TravRestarts uint64 `json:"trav_restarts"`
	GuardTrips   uint64 `json:"guard_trips"`
}

// Gauges snapshots every shard's gauge view. Safe to call while the store
// serves and across ReopenShard swaps.
func (st *Store) Gauges() []ShardGauges {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]ShardGauges, len(st.shards))
	for i, sh := range st.shards {
		out[i] = sh.gauges()
	}
	return out
}
