// Package store composes the repository's lock-free structures and
// reclamation schemes into a sharded multi-tenant key-value service — the
// deployment shape the ERA theorem's trade-off is actually about. A Store
// hashes keys across N shards; each shard owns its *own* simulated heap,
// its own registry-selected data structure, and its own SMR domain, so
// scheme choice becomes a per-shard deployment decision: hazard pointers
// on the hot shards where robustness pays, epochs on the cold ones where
// ease of integration and raw throughput win.
//
// Clients talk to the store through batched requests (Do): a batch is
// split per shard and each sub-batch travels as one message to the
// shard's worker goroutines, which execute the operations with their own
// scheme thread ids. Per-shard isolation means a stalled or faulting
// shard cannot corrupt — or even delay reclamation on — its neighbours.
//
// Shards drain gracefully: CloseShard (and Close) stop new submissions,
// let every queued batch complete, then flush the shard's retire lists so
// the backlog settles before the final stats are read.
package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/obs/rec"
	"repro/internal/sched"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/workload"
)

// Errors reported by submission paths.
var (
	// ErrClosed reports a submission to a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrShardClosed reports an operation routed to a drained shard.
	ErrShardClosed = errors.New("store: shard closed")
	// ErrNoIterator reports a migration of a shard whose set structure
	// cannot enumerate its keys (no ds.Iterator), so there is nothing to
	// carry its contents across the swap.
	ErrNoIterator = errors.New("store: structure has no iterator to snapshot")
)

// ShardSpec configures one shard: which reclamation scheme guards it,
// which structure it serves, and how much capacity it gets. Distinct
// shards may use distinct schemes — that heterogeneity is the point.
type ShardSpec struct {
	// Scheme is the reclamation scheme name ("ebr", "hp", ...), resolved
	// through smr/all. The scheme instance and its domain (retire lists,
	// epochs, hazard slots) are private to the shard.
	Scheme string
	// Structure is the set structure name, resolved through ds/registry
	// ("hashmap" is an alias for the HP-compatible hashmap-michael).
	Structure string
	// Workers is the number of worker goroutines (= scheme threads)
	// serving the shard; 0 selects 1.
	Workers int
	// Threshold is the scheme's retire-list scan threshold; 0 selects the
	// scheme default.
	Threshold int
	// Slots sizes the shard's heap; 0 derives a default from the store's
	// key range. Leaky schemes ("none") need an explicit size.
	Slots int
	// Gate, when non-nil, instruments the shard's structure with named
	// execution points (sched.Gate). This is the chaos-injection hook:
	// internal/chaos arms breakpoints on it to park shard workers at
	// reclamation-critical moments. Nil costs nothing on the serving path.
	Gate sched.Gate
}

// Config assembles a store.
type Config struct {
	// Shards holds one spec per shard; Uniform builds the homogeneous
	// case. Must be non-empty.
	Shards []ShardSpec
	// KeyRange is the key universe [0, KeyRange) the store is expected to
	// serve; it sizes the default per-shard heap. 0 selects 1024.
	KeyRange int
	// QueueDepth is the per-shard request-queue capacity (how many
	// batches may wait on a busy shard before submitters block). 0
	// selects 64.
	QueueDepth int
	// MigrateGrace bounds how long MigrateShard tolerates a *stalled*
	// drain: workers that keep completing operations are always waited
	// out (the queue is closed and bounded, so a merely busy shard
	// drains fully and its snapshot is exact), but once a full grace
	// window passes with zero operation progress the stragglers are
	// declared parked and the migration proceeds without them. A worker
	// parked at a fault breakpoint never exits on its own — robustness
	// faults are exactly threads that do not resume — so a bounded
	// stall wait is what keeps migration a remedy that works *during*
	// the fault it remedies. 0 selects 100ms.
	MigrateGrace time.Duration
	// Recorder, when non-nil, is the observability plane's flight
	// recorder (internal/obs/rec): every shard's reclamation scans and
	// traversal guard trips, and the store's migrations and reopens, are
	// stamped onto its shared run clock. Nil keeps the serving path
	// hook-free.
	Recorder *rec.Recorder
}

// Uniform returns n copies of spec — the homogeneous deployment.
func Uniform(n int, spec ShardSpec) []ShardSpec {
	specs := make([]ShardSpec, n)
	for i := range specs {
		specs[i] = spec
	}
	return specs
}

// Op is one key-value service operation. The operation vocabulary is the
// set ADT's, shared with the workload generator so benchmark streams feed
// straight into batches.
type Op struct {
	Kind workload.Op
	Key  int64
}

// Result is one operation's outcome: OK is the set-operation result
// (present / inserted / removed) and Err any heap or routing error.
type Result struct {
	OK  bool
	Err error
}

// shardMeta is the slot-level history that survives shard replacement:
// the shard objects come and go across reopen/migrate swaps, the meta
// stays with the slot. Guarded by the store's mu.
type shardMeta struct {
	// epoch counts the slot's incarnations: 0 for the original build,
	// +1 per reopen or migration swap.
	epoch uint64
	// migrations counts completed live scheme migrations.
	migrations uint64
	// Last completed migration's cost observables: membership probes the
	// snapshot issued, live keys it carried over, and the swap window —
	// the span from admission stop to the rebuilt shard's attach, i.e.
	// how long clients saw ErrShardClosed.
	snapshotProbes uint64
	snapshotKeys   uint64
	swapWindow     time.Duration
}

// migrationRec carries one migration's cost observables into attachShard,
// which records them in the slot's meta under the same exclusive lock
// that installs the new shard.
type migrationRec struct {
	start  time.Time
	probes uint64
	keys   uint64
}

// Store is the sharded service frontend. All methods are safe for
// concurrent use.
type Store struct {
	shards []*shard
	// meta holds per-slot swap history (epochs, migration counts).
	meta []shardMeta
	// cfg is the defaults-filled construction config, kept so closed
	// shards can be rebuilt (ReopenShard, MigrateShard).
	cfg Config

	// mu orders submissions against shard/store close: submitters hold it
	// shared while checking closed flags and enqueueing, closers hold it
	// exclusively while flipping the flags.
	mu     sync.RWMutex
	closed bool
}

// New builds the store and starts every shard's workers. Scheme ×
// structure pairs the paper classifies as inapplicable (Appendix E) are
// rejected up front.
func New(cfg Config) (*Store, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("store: config needs at least one shard")
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1024
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MigrateGrace <= 0 {
		cfg.MigrateGrace = 100 * time.Millisecond
	}
	st := &Store{cfg: cfg, meta: make([]shardMeta, len(cfg.Shards))}
	for i, spec := range cfg.Shards {
		sh, err := newShard(i, spec, cfg)
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("store: shard %d: %w", i, err)
		}
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// newShard resolves the spec and starts the shard's workers.
func newShard(id int, spec ShardSpec, cfg Config) (*shard, error) {
	info, err := registry.Get(spec.Structure)
	if err != nil {
		return nil, err
	}
	if info.Kind != registry.KindSet {
		return nil, fmt.Errorf("store serves set structures, %s is a %v", spec.Structure, info.Kind)
	}
	if spec.Workers <= 0 {
		spec.Workers = 1
	}
	if spec.Slots <= 0 {
		// A shard holds its hash slice of the key range (~KeyRange/N for
		// a mixed hash) plus the transient retired backlog; 2× the slice
		// plus fixed headroom covers sentinels, imbalance and backlog for
		// every reclaiming scheme.
		spec.Slots = 2*cfg.KeyRange/len(cfg.Shards) + 4096 + 64*spec.Workers
	}
	if spec.Threshold <= 0 {
		// Resolve the scheme-default scan threshold (smr.NewBase: 2 ×
		// threads × 8) into the spec, so Spec() — and the telemetry
		// budgets built from it — report the value the scheme actually
		// runs with. The scheme sees the same number either way.
		spec.Threshold = 2 * (spec.Workers + 1) * 8
	}
	// One scheme thread beyond the worker pool: the maintenance tid,
	// reserved for the shard's own drain/snapshot/replay machinery. It is
	// never driven concurrently with itself, and because it is not a
	// worker tid it stays usable even when a faulted worker never drains
	// (a parked worker owns its tid forever). Idle scheme threads are
	// free: an inactive announcement pins no epoch, an empty hazard slot
	// protects nothing.
	threads := spec.Workers + 1
	a := mem.NewArena(mem.Config{
		Slots:        spec.Slots,
		PayloadWords: info.PayloadWords,
		MetaWords:    smr.MetaWords,
		Threads:      threads,
		Mode:         mem.Reuse,
	})
	s, err := all.New(spec.Scheme, a, threads, spec.Threshold)
	if err != nil {
		return nil, err
	}
	if !registry.Applicable(s.Props(), info) {
		return nil, fmt.Errorf("scheme %s is not applicable to %s (Appendix E)", spec.Scheme, info.Name)
	}
	opts := ds.Options{Gate: spec.Gate}
	if r := cfg.Recorder; r != nil {
		// Guard trips and reclamation scans flow into the flight recorder
		// tagged with this slot id. Both hooks are installed before the
		// workers start, so the scan path reads them race-free.
		opts.OnGuardTrip = func(structure, op string, steps, restarts uint64) {
			r.Record(rec.KindGuardTrip, id, 0, steps, restarts, structure+"."+op)
		}
		if o, ok := s.(interface{ SetObserver(smr.Observer) }); ok {
			o.SetObserver(scanObserver{r: r, shard: id})
		}
	}
	set, err := info.NewSet(s, opts)
	if err != nil {
		return nil, err
	}
	sh := &shard{
		id:      id,
		spec:    spec,
		arena:   a,
		scheme:  s,
		set:     set,
		maint:   spec.Workers,
		ordered: !info.Partitioned,
		rec:     cfg.Recorder,
		reqs:    make(chan *request, cfg.QueueDepth),
		stripes: make([]opStripe, spec.Workers),
	}
	sh.batch, _ = set.(ds.BatchSet)
	for w := 0; w < spec.Workers; w++ {
		sh.wg.Add(1)
		go sh.worker(w)
	}
	return sh, nil
}

// scanObserver forwards one shard scheme's reclamation scans into the
// flight recorder: A = retired nodes examined, B = nodes reclaimed.
type scanObserver struct {
	r     *rec.Recorder
	shard int
}

func (o scanObserver) SMRScan(tid, scanned, reclaimed int) {
	o.r.Record(rec.KindSMRScan, o.shard, tid, uint64(scanned), uint64(reclaimed), "")
}

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.shards) }

// ShardFor returns the shard index serving key.
func (st *Store) ShardFor(key int64) int { return st.shardOf(key) }

// mix64 is the Murmur3 finalizer: it spreads adjacent (and zipfian-hot)
// keys across shards so the shard index exercises every bit of the key.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (st *Store) shardOf(key int64) int {
	return int(mix64(uint64(key)) % uint64(len(st.shards)))
}

// doSpine is the pooled partition state behind Do/DoInto: the flat
// two-pass partition arrays (the exec leg-compilation treatment applied
// to the store's own routing) and the WaitGroup, embedded so the
// completion handshake allocates nothing either. One spine serves one
// call, then returns to the pool.
type doSpine struct {
	wg    sync.WaitGroup
	count []int
	offs  []int
	ops   []Op
	idx   []int
}

var spinePool = sync.Pool{New: func() any { return new(doSpine) }}

// Do executes a batch: operations are grouped per shard, each group is
// submitted as one message, and the call returns once every shard has
// filled in its results (res[i] answers ops[i]). Operations routed to a
// drained shard report ErrShardClosed in their individual Result; a fully
// closed store fails the whole call with ErrClosed.
func (st *Store) Do(ops []Op) ([]Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	res := make([]Result, len(ops))
	if err := st.DoInto(ops, res); err != nil {
		return nil, err
	}
	return res, nil
}

// DoInto is Do with a caller-provided result slice (len(res) must be at
// least len(ops); res[i] answers ops[i]). With the envelope pool and
// the pooled partition spine this is the zero-alloc steady-state point
// of the service hot path: a caller that reuses res allocates nothing
// per request.
func (st *Store) DoInto(ops []Op, res []Result) error {
	if len(ops) == 0 {
		return nil
	}
	if len(res) < len(ops) {
		return fmt.Errorf("store: result slice too short (%d < %d)", len(res), len(ops))
	}
	ns := len(st.shards)
	sp := spinePool.Get().(*doSpine)
	var opsFlat []Op
	var idxFlat []int
	var offs []int
	if ns == 1 {
		// Single shard: no partition needed, the batch travels as-is.
		opsFlat = ops
	} else {
		// Flat two-pass partition: count per shard, prefix into offsets,
		// fill contiguous per-shard slices. mix64 is cheaper than a
		// cached shard-id array would be.
		if cap(sp.count) < ns {
			sp.count = make([]int, ns)
			sp.offs = make([]int, ns)
		}
		count := sp.count[:ns]
		offs = sp.offs[:ns]
		for s := range count {
			count[s] = 0
		}
		for _, op := range ops {
			count[st.shardOf(op.Key)]++
		}
		sum := 0
		for s, n := range count {
			offs[s] = sum
			sum += n
		}
		if cap(sp.ops) < len(ops) {
			sp.ops = make([]Op, 0, 2*len(ops))
			sp.idx = make([]int, 0, 2*len(ops))
		}
		opsFlat = sp.ops[:len(ops)]
		idxFlat = sp.idx[:len(ops)]
		for i, op := range ops {
			s := st.shardOf(op.Key)
			opsFlat[offs[s]] = op
			idxFlat[offs[s]] = i
			offs[s]++
		}
		// offs[s] now marks the end of shard s's segment.
	}
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		spinePool.Put(sp)
		return ErrClosed
	}
	if ns == 1 {
		sh := st.shards[0]
		if sh.closed {
			st.mu.RUnlock()
			spinePool.Put(sp)
			for i := range ops {
				res[i] = Result{Err: ErrShardClosed}
			}
			return nil
		}
		sp.wg.Add(1)
		req := newRequest()
		req.ops, req.res, req.wg = opsFlat, res, &sp.wg
		sh.reqs <- req
		st.mu.RUnlock()
	} else {
		lo := 0
		for s := 0; s < ns; s++ {
			hi := offs[s]
			if hi == lo {
				continue
			}
			sh := st.shards[s]
			if sh.closed {
				for _, i := range idxFlat[lo:hi] {
					res[i] = Result{Err: ErrShardClosed}
				}
				lo = hi
				continue
			}
			sp.wg.Add(1)
			req := newRequest()
			req.ops, req.res, req.idx, req.wg = opsFlat[lo:hi], res, idxFlat[lo:hi], &sp.wg
			sh.reqs <- req
			lo = hi
		}
		st.mu.RUnlock()
	}
	sp.wg.Wait()
	// Every worker stripped and pooled its envelope before Done, so the
	// flat arrays are no longer referenced and the spine can be reused.
	spinePool.Put(sp)
	return nil
}

// ScanShard walks shard s's live keys in the half-open interval [lo, hi)
// and returns them in the structure's iterator emission order, plus the
// match count. The leg travels the shard's request queue and executes on
// a worker tid through the structure's guarded iterator — O(live keys),
// epoch re-bracketed, subject to the same backpressure and faults as any
// batch — so it is the range-scatter primitive the exec layer fans
// RangeScan/RangeCount across shards with. limit > 0 caps the collected
// keys; countOnly skips collection and returns only the count. Ordered
// structures stop at the first key ≥ hi; partitioned ones sweep their
// buckets, so cross-shard callers must sort-merge (exec's merge stage
// does).
func (st *Store) ScanShard(s int, lo, hi int64, limit int, countOnly bool) ([]int64, uint64, error) {
	if s < 0 || s >= len(st.shards) {
		return nil, 0, fmt.Errorf("store: no shard %d", s)
	}
	if hi <= lo {
		return nil, 0, nil
	}
	sc := &scanRequest{lo: lo, hi: hi, limit: limit, countOnly: countOnly}
	var wg sync.WaitGroup
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		return nil, 0, ErrClosed
	}
	sh := st.shards[s]
	if sh.closed {
		st.mu.RUnlock()
		return nil, 0, ErrShardClosed
	}
	wg.Add(1)
	req := newRequest()
	req.scan, req.wg = sc, &wg
	sh.reqs <- req
	st.mu.RUnlock()
	wg.Wait()
	if sc.err != nil {
		return nil, sc.count, sc.err
	}
	return sc.keys, sc.count, nil
}

// DoShardAsync executes one batch entirely on shard s — the scatter-leg
// submission path the exec layer (internal/exec) compiles cross-shard
// operations onto. Unlike Do it does not route: the caller has already
// grouped its operations by ShardFor. The batch is offered to shard s's
// request queue and the call returns immediately — accepted reports
// whether the queue had room. On acceptance, the worker that completes
// the batch writes each operation's outcome into res (at idx positions
// when idx is non-nil, res[i] answers ops[i] otherwise) and then runs
// done on its own goroutine; done observes every result write. done must
// be light — it occupies the shard worker. A refused batch (accepted ==
// false, err == nil) touched nothing and may be retried; a drained shard
// or closed store refuses with ErrShardClosed or ErrClosed. This is the
// submission path a pipelined fan-out layer needs: one goroutine can
// keep many legs in flight with no blocked thread per leg.
func (st *Store) DoShardAsync(s int, ops []Op, res []Result, idx []int, done func()) (accepted bool, err error) {
	if s < 0 || s >= len(st.shards) {
		return false, fmt.Errorf("store: no shard %d", s)
	}
	if len(ops) == 0 {
		done()
		return true, nil
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed {
		return false, ErrClosed
	}
	sh := st.shards[s]
	if sh.closed {
		return false, ErrShardClosed
	}
	req := newRequest()
	req.ops, req.res, req.idx, req.done = ops, res, idx, done
	select {
	case sh.reqs <- req:
		return true, nil
	default:
		*req = request{}
		reqPool.Put(req)
		return false, nil
	}
}

// ScanShardAsync is ScanShard's asynchronous, non-blocking form: the
// range leg is offered to shard s's request queue; accepted reports
// whether the queue had room. On acceptance, the worker that ran the
// walk calls done with the leg's outcome. The same contract as
// DoShardAsync applies: a refusal touched nothing, done runs on the
// worker and must be light.
func (st *Store) ScanShardAsync(s int, lo, hi int64, limit int, countOnly bool, done func(keys []int64, count uint64, err error)) (accepted bool, err error) {
	if s < 0 || s >= len(st.shards) {
		return false, fmt.Errorf("store: no shard %d", s)
	}
	if hi <= lo {
		done(nil, 0, nil)
		return true, nil
	}
	sc := &scanRequest{lo: lo, hi: hi, limit: limit, countOnly: countOnly}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed {
		return false, ErrClosed
	}
	sh := st.shards[s]
	if sh.closed {
		return false, ErrShardClosed
	}
	req := newRequest()
	req.scan, req.done = sc, func() { done(sc.keys, sc.count, sc.err) }
	select {
	case sh.reqs <- req:
		return true, nil
	default:
		*req = request{}
		reqPool.Put(req)
		return false, nil
	}
}

// do1 runs a single operation through the batch path.
func (st *Store) do1(kind workload.Op, key int64) (bool, error) {
	res, err := st.Do([]Op{{Kind: kind, Key: key}})
	if err != nil {
		return false, err
	}
	return res[0].OK, res[0].Err
}

// Insert adds key; false if already present.
func (st *Store) Insert(key int64) (bool, error) { return st.do1(workload.OpInsert, key) }

// detachShard is the front half of every shard swap: it stops new
// submissions to shard s (they start failing with ErrShardClosed) and
// closes the request queue so the workers drain what is already queued
// and exit. The caller decides how long to wait for that exit
// (shard.await) and what to install in the slot afterwards
// (attachShard), which is what lets CloseShard, ReopenShard, and
// MigrateShard share one drain core.
func (st *Store) detachShard(s int) (*shard, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrClosed
	}
	sh := st.shards[s]
	if sh.closed {
		st.mu.Unlock()
		return nil, ErrShardClosed
	}
	sh.closed = true
	st.mu.Unlock()
	// No submitter can reach the queue anymore (they re-check the flag
	// under mu), so closing lets the workers drain what's left and exit.
	close(sh.reqs)
	return sh, nil
}

// attachShard is the back half of a swap: it installs repl as shard s,
// atomically under the exclusive lock, provided the slot still holds the
// shard the caller detached (a concurrent reopen may have raced the
// rebuild; the loser is torn down, not leaked). The slot's epoch always
// advances; a non-nil mig additionally bumps the migration count and
// records the migration's cost observables (probes, keys, swap window).
func (st *Store) attachShard(s int, old, repl *shard, mig *migrationRec) error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		repl.teardown()
		return ErrClosed
	}
	if st.shards[s] != old {
		st.mu.Unlock()
		repl.teardown()
		return fmt.Errorf("store: shard %d was swapped concurrently", s)
	}
	st.shards[s] = repl
	st.meta[s].epoch++
	if mig != nil {
		st.meta[s].migrations++
		st.meta[s].snapshotProbes = mig.probes
		st.meta[s].snapshotKeys = mig.keys
		st.meta[s].swapWindow = time.Since(mig.start)
	}
	st.mu.Unlock()
	return nil
}

// CloseShard drains one shard: new operations routed to it start failing
// with ErrShardClosed, every batch already queued completes, and the
// shard's retire lists are flushed so its backlog settles. The rest of
// the store keeps serving.
func (st *Store) CloseShard(s int) error {
	if s < 0 || s >= len(st.shards) {
		return fmt.Errorf("store: no shard %d", s)
	}
	sh, err := st.detachShard(s)
	if err != nil {
		return err
	}
	sh.await(0)
	sh.drain()
	return nil
}

// ReopenShard rebuilds a drained shard from its resolved spec and resumes
// serving on it. The rebuilt shard starts empty — reopening models a
// process restart (fresh heap, fresh SMR domain, cold data), which is
// exactly the fault surface the chaos churn fault exercises: clients see
// ErrShardClosed turn back into misses, not into stale data.
func (st *Store) ReopenShard(s int) error {
	if s < 0 || s >= len(st.shards) {
		return fmt.Errorf("store: no shard %d", s)
	}
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		return ErrClosed
	}
	old := st.shards[s]
	// Read the flag under the lock (detachShard writes it under the
	// exclusive lock). It only ever transitions false→true on a given
	// shard object — swaps install a new object — so once observed true
	// here it stays true through the rebuild below.
	closed := old.closed
	st.mu.RUnlock()
	if !closed {
		return fmt.Errorf("store: shard %d is open", s)
	}
	sh, err := newShard(s, old.spec, st.cfg)
	if err != nil {
		return fmt.Errorf("store: reopen shard %d: %w", s, err)
	}
	if err := st.attachShard(s, old, sh, nil); err != nil {
		return fmt.Errorf("store: reopen shard %d: %w", s, err)
	}
	st.cfg.Recorder.Record(rec.KindReopen, s, 0, 0, 0, old.spec.Scheme)
	return nil
}

// MigrateShard live-migrates shard s onto a different reclamation
// scheme: it stops admissions, drains the in-flight batches, snapshots
// the shard's set contents, rebuilds heap + structure + SMR domain under
// the new scheme, replays the snapshot, and atomically swaps the rebuilt
// shard in. Operations routed to the shard while the swap is in flight
// fail with ErrShardClosed — the same transient clients already absorb
// across churn — and the rest of the store serves throughout. Migrating
// a shard to its current scheme is allowed: that is a restart that keeps
// the data.
//
// A worker parked at a fault breakpoint cannot be drained — a robustness
// fault is precisely a thread that does not resume — so after
// Config.MigrateGrace the migration proceeds without the straggler. The
// straggler keeps its tid on the *orphaned* incarnation: when (if) it
// resumes it completes its one in-flight batch against the old heap and
// exits, the client unblocks, and any effect of that batch stays behind
// on memory the store no longer serves. That is restart semantics for
// the stuck thread, bounded migration latency for everyone else — and it
// is exactly why escalating a shard off a non-robust scheme is possible
// *during* the stall that made escalation necessary.
//
// On a snapshot or rebuild failure the shard is left closed (ReopenShard
// recovers it, cold); the error reports which.
func (st *Store) MigrateShard(s int, scheme string) error {
	if s < 0 || s >= len(st.shards) {
		return fmt.Errorf("store: no shard %d", s)
	}
	// Validate the target before touching the shard: a typo'd scheme must
	// not leave the shard closed.
	props, err := all.Props(scheme)
	if err != nil {
		return err
	}
	spec, err := st.Spec(s)
	if err != nil {
		return err
	}
	info, err := registry.Get(spec.Structure)
	if err != nil {
		return err
	}
	if !registry.Applicable(props, info) {
		return fmt.Errorf("store: migrate shard %d: scheme %s is not applicable to %s (Appendix E)", s, scheme, info.Name)
	}
	transition := spec.Scheme + "→" + scheme
	swapStart := time.Now()
	old, err := st.detachShard(s)
	if err != nil {
		return err
	}
	st.cfg.Recorder.Record(rec.KindMigrationStart, s, 0, 0, 0, transition)
	if clean := old.await(st.cfg.MigrateGrace); clean {
		// Fully quiesced: settle the backlog so the snapshot reads a
		// drained structure. With a straggler parked mid-operation the
		// flush is skipped — its tid is not ours to drive, and the old
		// heap is about to be orphaned wholesale anyway.
		old.drain()
	}
	keys, probes, err := old.snapshot(st.shardOf)
	if err != nil {
		st.cfg.Recorder.Record(rec.KindMigrationFail, s, 0, 0, 0, "snapshot: "+err.Error())
		return fmt.Errorf("store: migrate shard %d: snapshot: %w (shard left closed)", s, err)
	}
	nspec := old.spec
	nspec.Scheme = scheme
	repl, err := newShard(s, nspec, st.cfg)
	if err != nil {
		st.cfg.Recorder.Record(rec.KindMigrationFail, s, 0, 0, 0, "rebuild: "+err.Error())
		return fmt.Errorf("store: migrate shard %d: rebuild: %w (shard left closed)", s, err)
	}
	if err := repl.replay(keys); err != nil {
		repl.teardown()
		st.cfg.Recorder.Record(rec.KindMigrationFail, s, 0, 0, 0, "replay: "+err.Error())
		return fmt.Errorf("store: migrate shard %d: replay: %w (shard left closed)", s, err)
	}
	mrec := &migrationRec{start: swapStart, probes: probes, keys: uint64(len(keys))}
	if err := st.attachShard(s, old, repl, mrec); err != nil {
		st.cfg.Recorder.Record(rec.KindMigrationFail, s, 0, 0, 0, err.Error())
		return fmt.Errorf("store: migrate shard %d: %w", s, err)
	}
	st.cfg.Recorder.Record(rec.KindMigrationDone, s, 0,
		uint64(len(keys)), uint64(time.Since(swapStart)), transition)
	return nil
}

// Spec returns shard s's resolved spec (defaults filled in).
func (st *Store) Spec(s int) (ShardSpec, error) {
	if s < 0 || s >= len(st.shards) {
		return ShardSpec{}, fmt.Errorf("store: no shard %d", s)
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.shards[s].spec, nil
}

// Close drains every shard and shuts the store down. Batches accepted
// before Close complete; later submissions fail with ErrClosed.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	st.closed = true
	var open []*shard
	for _, sh := range st.shards {
		if !sh.closed {
			sh.closed = true
			open = append(open, sh)
		}
	}
	st.mu.Unlock()
	for _, sh := range open {
		close(sh.reqs)
	}
	for _, sh := range open {
		sh.await(0)
		sh.drain()
	}
	return nil
}

// stop tears down partially constructed shards on a New failure.
func (st *Store) stop() {
	for _, sh := range st.shards {
		close(sh.reqs)
		sh.wg.Wait()
	}
}
