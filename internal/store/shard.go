package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/obs/rec"
	"repro/internal/smr"
	"repro/internal/workload"
)

// request is one shard's slice of a client batch. The worker writes each
// operation's outcome straight into the caller's result slice at the
// caller's positions; the completion hand-off (WaitGroup for the
// blocking paths, done callback for the async ones) orders those writes
// before the caller reads them.
type request struct {
	ops []Op
	res []Result
	// idx maps ops positions into res; nil means identity (res[i]
	// answers ops[i]).
	idx []int
	// Exactly one of wg and done is set. wg serves the blocking paths
	// (Do, DoShard, ScanShard); done serves the async ones and runs on
	// the worker that completed the request.
	wg   *sync.WaitGroup
	done func()
	// scan, when non-nil, makes this request a range leg instead of a
	// point-op batch: the worker walks the shard structure's iterator on
	// its own tid and collects the live keys in [lo, hi). ops/res/idx are
	// unused for scan requests. Range legs travel the same queue as
	// point-op batches on purpose — they are subject to the same
	// backpressure, the same drain, and the same faults.
	scan *scanRequest
}

// reqPool recycles request envelopes across every submission path: the
// worker returns each envelope after serving it, so steady-state
// Do/DoShardAsync traffic allocates nothing per request.
var reqPool = sync.Pool{New: func() any { return new(request) }}

// newRequest returns a cleared request envelope from the pool.
func newRequest() *request { return reqPool.Get().(*request) }

// finish publishes the request's results to its submitter — the
// blocking paths park on the WaitGroup, the async paths get their
// callback run right here on the worker — and returns the envelope to
// the pool. The envelope is stripped *before* the completion signal:
// once wg.Done/done runs, the submitter may recycle its own buffers
// and the pool may hand the envelope to any other submitter, so
// nothing may touch req afterwards.
func finish(req *request) {
	wg, done := req.wg, req.done
	*req = request{}
	reqPool.Put(req)
	if wg != nil {
		wg.Done()
		return
	}
	if done != nil {
		done()
	}
}

// scanKeyPool recycles range-leg key buffers (see RecycleScanKeys), so
// range-heavy mixes stop churning the GC with one fresh slice per leg.
var scanKeyPool = sync.Pool{New: func() any { b := make([]int64, 0, 512); return &b }}

// maxRetainedScanCap bounds the capacity RecycleScanKeys keeps: a leg
// that ballooned past it is left to the GC instead of pinning its
// memory in the pool forever.
const maxRetainedScanCap = 1 << 16

// RecycleScanKeys returns a key slice obtained from ScanShard /
// ScanShardAsync to the scan-buffer pool. Recycling is optional —
// callers that drop the slice just pay GC churn — but a caller that
// recycles must not touch the slice afterwards.
func RecycleScanKeys(keys []int64) {
	if keys == nil || cap(keys) > maxRetainedScanCap {
		return
	}
	b := keys[:0]
	scanKeyPool.Put(&b)
}

// scanRequest is one range leg: the half-open key interval, an optional
// collection limit, and the outcome fields the worker fills before the
// WaitGroup hand-off publishes them to the caller.
type scanRequest struct {
	lo, hi    int64
	limit     int // max keys collected; <= 0 is unbounded
	countOnly bool
	keys      []int64
	count     uint64
	err       error
}

// run executes the range leg on worker tid. The walk goes through the
// structure's guarded iterator (epoch re-bracketing), never a raw memory
// sweep, so it is safe against concurrent mutation and a never-draining
// faulted neighbour alike. The iterator starts at lo: the skip list seeks
// there through its tower, the other structures suppress the smaller keys
// themselves. On ordered structures emission is globally ascending, so
// the walk also stops at the first key ≥ hi — a skip-list leg costs
// O(log n + keys in range); partitioned structures are only
// bucket-ordered and must complete the sweep.
func (sc *scanRequest) run(sh *shard, tid int) {
	it, ok := sh.set.(ds.Iterator)
	if !ok {
		sc.err = fmt.Errorf("store: %s does not implement ds.Iterator", sh.set.Name())
		return
	}
	if !sc.countOnly && sc.keys == nil {
		sc.keys = (*scanKeyPool.Get().(*[]int64))[:0]
	}
	sc.err = it.IterateFrom(tid, sc.lo, func(k int64) bool {
		if k >= sc.hi {
			// Ascending emission: no later key can fall back inside the
			// interval.
			return !sh.ordered
		}
		sc.count++
		if !sc.countOnly {
			sc.keys = append(sc.keys, k)
		}
		return sc.limit <= 0 || sc.count < uint64(sc.limit)
	})
}

// opStripe is one worker's share of the shard's service counters, padded
// to a cache line so neighbouring workers never share (the mem.Stats
// treatment applied one layer up). The worker accumulates a whole
// request's deltas locally and publishes each touched counter once per
// request, so the hot loop carries no per-op atomics.
type opStripe struct {
	ops  atomic.Uint64 // operations completed
	hits atomic.Uint64 // operations returning true
	errs atomic.Uint64 // operations returning an error
	// Fused-window accounting (the batch-fusion hot path).
	fusedBatches atomic.Uint64 // point-op batches served through ApplyBatch
	fusedOps     atomic.Uint64 // operations inside those batches
	rebrackets   atomic.Uint64 // bracket renewals fused windows paid
	batchSorts   atomic.Uint64 // batches the worker had to key-sort
	_            [8]byte
}

// shard is one service partition: a private heap, a private SMR domain,
// one structure instance, and the workers that execute on them.
type shard struct {
	id     int
	spec   ShardSpec // resolved: Workers/Slots defaults filled in
	arena  *mem.Arena
	scheme smr.Scheme
	set    ds.Set
	// maint is the reserved maintenance scheme tid (== spec.Workers):
	// drain, migration snapshot, and replay run on it, so they never
	// collide with a worker tid — not even with a faulted worker that
	// never drained.
	maint int
	// ordered reports that the structure's iterator emits keys in global
	// ascending order (ordered structures), which lets range legs stop at
	// the interval's upper bound: with the skip list's seek to lo, a leg
	// costs O(log n + keys in range) there, and O(keys < hi) on the lists.
	// Partitioned structures are only ordered per bucket and must sweep
	// fully.
	ordered bool
	// batch is the structure's fused fast path, nil when the structure
	// does not implement ds.BatchSet.
	batch ds.BatchSet
	// rec is the flight recorder (nil-safe), for sparse fused-window
	// events.
	rec *rec.Recorder

	reqs chan *request
	wg   sync.WaitGroup
	// closed is guarded by the store's mu.
	closed bool

	stripes []opStripe
}

// workerScratch is one worker's long-lived batch-conversion state:
// the fused path copies each request into these buffers (so sorting
// never mutates caller memory) and reuses them request after request —
// the steady-state serving path allocates nothing. ops2/pos2 are the
// sort's second buffer.
type workerScratch struct {
	ops, ops2 []ds.BatchOp
	pos, pos2 []int
	res       []ds.BatchResult
}

func (sc *workerScratch) size(n int) {
	if cap(sc.ops) < n {
		sc.ops = make([]ds.BatchOp, 0, 2*n)
		sc.ops2 = make([]ds.BatchOp, 0, 2*n)
		sc.pos = make([]int, 0, 2*n)
		sc.pos2 = make([]int, 0, 2*n)
		sc.res = make([]ds.BatchResult, 0, 2*n)
	}
}

// insertionSortMax is the longest batch sortBatch insertion-sorts: up to
// here its ~n²/4 moves cost less than one radix pass's 256 counters.
const insertionSortMax = 32

// sortBatch stable-sorts the batch by key, carrying the result positions
// along, and returns the sorted slices: ops/pos themselves, or tops/tpos
// (same lengths, contents overwritten) when the last pass landed there.
// Stability preserves per-key op order, which is what makes the sorted
// execution result-identical to the serial loop (point ops on distinct
// keys commute).
//
// Short batches are insertion-sorted in place. Longer ones take a
// least-significant-byte-first radix sort — stable by construction,
// zero-alloc over the second buffer — that only runs the passes for key
// bytes in which the batch's keys differ: two for a 4096-key shard
// range, 1.4 µs per 128-op batch where insertion sort's 4 k moves took
// 6.1 µs and were the largest item of the worker's own time once the
// structure walk became a sweep. A comparison merge sort was measured
// too (5.7 µs): on uniform keys its cost is branch mispredictions, not
// moves, so O(n log n) alone buys nothing at this size.
func sortBatch(ops []ds.BatchOp, pos []int, tops []ds.BatchOp, tpos []int) ([]ds.BatchOp, []int) {
	n := len(ops)
	if n <= insertionSortMax {
		for i := 1; i < n; i++ {
			op, p := ops[i], pos[i]
			j := i
			for j > 0 && ops[j-1].Key > op.Key {
				ops[j], pos[j] = ops[j-1], pos[j-1]
				j--
			}
			ops[j], pos[j] = op, p
		}
		return ops, pos
	}
	// Flipping the sign bit makes unsigned byte order the keys' order.
	const sign = 1 << 63
	first := uint64(ops[0].Key) ^ sign
	var differ uint64
	for i := 1; i < n; i++ {
		differ |= uint64(ops[i].Key) ^ sign ^ first
	}
	tops, tpos = tops[:n], tpos[:n]
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var next [256]int32 // per byte value: where its next op goes
		for i := range ops {
			next[(uint64(ops[i].Key)^sign)>>shift&0xff]++
		}
		sum := int32(0)
		for b := range next {
			sum, next[b] = sum+next[b], sum
		}
		for i := range ops {
			b := (uint64(ops[i].Key) ^ sign) >> shift & 0xff
			tops[next[b]], tpos[next[b]] = ops[i], pos[i]
			next[b]++
		}
		ops, tops, pos, tpos = tops, ops, tpos, pos
	}
	return ops, pos
}

// worker executes requests with scheme thread id tid. The tid doubles as
// the stripe index, so the hot counters never contend.
func (sh *shard) worker(tid int) {
	defer sh.wg.Done()
	stripe := &sh.stripes[tid]
	var scratch workerScratch
	for req := range sh.reqs {
		if req.scan != nil {
			// A range leg counts as one operation for progress accounting
			// (await's stall detector watches the op stripes).
			req.scan.run(sh, tid)
			stripe.ops.Add(1)
			if req.scan.err != nil {
				stripe.errs.Add(1)
			}
			finish(req)
			continue
		}
		sh.serve(tid, stripe, req, &scratch)
		finish(req)
	}
}

// serve executes one point-op request: through the structure's fused
// ApplyBatch when it has one (one amortized SMR bracket for the whole
// batch, key-sorted for predecessor locality), falling back to the
// per-op loop otherwise. Either way the stripe counters are published
// once per request, not per op.
func (sh *shard) serve(tid int, stripe *opStripe, req *request, scratch *workerScratch) {
	var hits, errs uint64
	n := len(req.ops)
	if sh.batch != nil && n > 1 && batchable(req.ops) {
		scratch.size(n)
		bops := scratch.ops[:n]
		pos := scratch.pos[:n]
		bres := scratch.res[:n]
		sorted := true
		for i, op := range req.ops {
			// The kind spaces line up by construction (ds.BatchKind
			// mirrors workload.Op), so conversion is a cast.
			bops[i] = ds.BatchOp{Kind: ds.BatchKind(op.Kind), Key: op.Key}
			if req.idx != nil {
				pos[i] = req.idx[i]
			} else {
				pos[i] = i
			}
			if i > 0 && op.Key < req.ops[i-1].Key {
				sorted = false
			}
		}
		if !sorted {
			bops, pos = sortBatch(bops, pos, scratch.ops2[:n], scratch.pos2[:n])
			stripe.batchSorts.Add(1)
		}
		rb := sh.batch.ApplyBatch(tid, bops, bres)
		for i := range bres {
			req.res[pos[i]] = Result{OK: bres[i].OK, Err: bres[i].Err}
			if bres[i].OK {
				hits++
			}
			if bres[i].Err != nil {
				errs++
			}
		}
		stripe.fusedBatches.Add(1)
		stripe.fusedOps.Add(uint64(n))
		if rb > 0 {
			stripe.rebrackets.Add(rb)
			sh.rec.Record(rec.KindBatchWindow, sh.id, tid, uint64(n), rb, "")
		}
	} else {
		for i, op := range req.ops {
			var ok bool
			var err error
			switch op.Kind {
			case workload.OpContains:
				ok, err = sh.set.Contains(tid, op.Key)
			case workload.OpInsert:
				ok, err = sh.set.Insert(tid, op.Key)
			case workload.OpDelete:
				ok, err = sh.set.Delete(tid, op.Key)
			default:
				err = fmt.Errorf("store: invalid op kind %d", op.Kind)
			}
			pos := i
			if req.idx != nil {
				pos = req.idx[i]
			}
			req.res[pos] = Result{OK: ok, Err: err}
			if ok {
				hits++
			}
			if err != nil {
				errs++
			}
		}
	}
	stripe.ops.Add(uint64(n))
	if hits > 0 {
		stripe.hits.Add(hits)
	}
	if errs > 0 {
		stripe.errs.Add(errs)
	}
}

// batchable reports that every op kind is in the set vocabulary, so the
// fused path can run the whole batch; a malformed kind falls back to
// the serial loop, which reports the store's per-op error for it.
func batchable(ops []Op) bool {
	for _, op := range ops {
		if op.Kind > workload.OpDelete {
			return false
		}
	}
	return true
}

// opCount sums the shard's op stripes — the progress signal await's
// bounded mode watches.
func (sh *shard) opCount() uint64 {
	var n uint64
	for i := range sh.stripes {
		n += sh.stripes[i].ops.Load()
	}
	return n
}

// await waits for the shard's workers to exit after the request queue
// closed. grace <= 0 waits indefinitely. A positive grace bounds only
// *stalls*, not work: as long as the workers keep completing operations
// the wait continues (the queue is closed and bounded, so live workers
// finish in finite time — giving up on a merely busy shard would let a
// snapshot race in-flight writes). Only when a full grace window passes
// with zero operation progress are the remaining workers declared
// parked — a worker stopped at a fault breakpoint holds its tid until
// the fault heals, which may be never — and await reports false.
func (sh *shard) await(grace time.Duration) bool {
	if grace <= 0 {
		sh.wg.Wait()
		return true
	}
	done := make(chan struct{})
	go func() {
		sh.wg.Wait()
		close(done)
	}()
	last := sh.opCount()
	for {
		select {
		case <-done:
			return true
		case <-time.After(grace):
			cur := sh.opCount()
			if cur == last {
				return false
			}
			last = cur
		}
	}
}

// teardown stops a shard that was never (or is no longer) installed in
// the store: close the queue, wait the workers out.
func (sh *shard) teardown() {
	close(sh.reqs)
	sh.wg.Wait()
}

// drain flushes every retire list — the workers' and the maintenance
// tid's — a few rounds after the workers have exited, letting
// epoch-style schemes advance past the last operations and reclaim the
// settled backlog. Quiescent use only: every worker must have exited.
func (sh *shard) drain() {
	for round := 0; round < 3; round++ {
		for tid := 0; tid <= sh.spec.Workers; tid++ {
			sh.scheme.Flush(tid)
		}
	}
}

// snapshot reads the shard's current set contents on the maintenance
// tid by walking the structure's iterator — O(live keys), one probe per
// emitted key, independent of the store's key universe. The walk goes
// through guarded operations (never a raw structure walk), so the
// snapshot stays safe even when a faulted worker never drained: a
// concurrent straggler and the snapshot are just two lock-free
// operations. probes counts membership reads — the observable
// TestSnapshotProbesBounded bounds. A set without
// ds.Iterator cannot be snapshotted: ErrNoIterator (every registered set
// has one; the ds/registry tests pin that).
func (sh *shard) snapshot(route func(int64) int) (keys []int64, probes uint64, err error) {
	it, ok := sh.set.(ds.Iterator)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoIterator, sh.spec.Structure)
	}
	err = it.Iterate(sh.maint, func(k int64) bool {
		probes++
		if route(k) == sh.id {
			keys = append(keys, k)
		}
		return true
	})
	if err != nil {
		return nil, probes, err
	}
	return keys, probes, nil
}

// replay inserts a snapshot into the shard before it starts serving
// (the workers are idle until the shard is attached, so the maintenance
// tid has the structure to itself). Replayed inserts do not count as
// service operations: the op stripes stay at zero, which is also what
// signals the telemetry monitor that a new incarnation began.
func (sh *shard) replay(keys []int64) error {
	for _, k := range keys {
		if _, err := sh.set.Insert(sh.maint, k); err != nil {
			return err
		}
	}
	return nil
}

// gauges reads the shard's telemetry tap: arena level gauges and
// watermarks plus summed op stripes. See ShardGauges.
func (sh *shard) gauges() ShardGauges {
	g := ShardGauges{Shard: sh.id}
	for i := range sh.stripes {
		g.Ops += sh.stripes[i].ops.Load()
	}
	as := sh.arena.Stats()
	g.Retired = as.Retired()
	g.MaxRetired = as.MaxRetired()
	g.Active = as.Active()
	g.MaxActive = as.MaxActive()
	if tr, ok := sh.set.(ds.TravReporter); ok {
		tv := tr.TravSnapshot()
		g.TravSteps = tv.Steps
		g.TravRestarts = tv.Restarts
		g.GuardTrips = tv.GuardTrips
	}
	return g
}

// stats aggregates the shard's striped service counters with its arena
// and scheme counters.
func (sh *shard) stats() ShardStats {
	s := ShardStats{
		Shard:     sh.id,
		Scheme:    sh.scheme.Name(),
		Structure: sh.set.Name(),
		Workers:   sh.spec.Workers,
	}
	for i := range sh.stripes {
		st := &sh.stripes[i]
		s.Ops += st.ops.Load()
		s.Hits += st.hits.Load()
		s.Errs += st.errs.Load()
		s.FusedBatches += st.fusedBatches.Load()
		s.FusedOps += st.fusedOps.Load()
		s.Rebrackets += st.rebrackets.Load()
		s.BatchSorts += st.batchSorts.Load()
	}
	a := sh.arena.Stats().Snapshot()
	s.Retired = a.Retired
	s.MaxRetired = a.MaxRetired
	s.MaxActive = a.MaxActive
	s.Faults = a.Faults
	s.UnsafeAccesses = a.UnsafeAccesses()
	s.Violations = a.Violations
	s.OOMs = a.OOMs
	sc := sh.scheme.Stats().Snapshot()
	s.Restarts = sc.Restarts
	s.StaleUses = sc.StaleUses
	if tr, ok := sh.set.(ds.TravReporter); ok {
		tv := tr.TravSnapshot()
		s.TravSteps = tv.Steps
		s.TravRestarts = tv.Restarts
		s.GuardTrips = tv.GuardTrips
		s.MaxOpSteps = tv.MaxOpSteps
	}
	return s
}
