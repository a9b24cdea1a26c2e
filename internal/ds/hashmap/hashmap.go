// Package hashmap implements a fixed-size lock-free hash set: an array of
// buckets, each an independent Harris or Michael linked-list.
//
// The map exists for workload realism in the throughput experiments
// (short chains, high locality, the setting the cited schemes were
// evaluated in) and to show that applicability verdicts transfer
// compositionally: a bucket built on Harris's list inherits Harris's
// incompatibility with the protection-based schemes, a bucket built on
// Michael's list does not.
//
// Batches run as a bucket sweep (Map.ApplyBatch): the ops are threaded
// into per-bucket chains and each bucket runs its chain under one shared
// fused window with its list's predecessor cursor, so the key order a
// caller sorted the batch into pays off inside every bucket.
package hashmap

import (
	"fmt"

	"repro/internal/ds"
	"repro/internal/ds/harris"
	"repro/internal/ds/michael"
	"repro/internal/smr"
)

// bucket is what the map needs of a bucket list: the set, its iterator
// and counters, and the entry point that runs one chain of a batch under
// a window the map holds.
type bucket interface {
	ds.Set
	ds.Iterator
	ds.TravReporter
	RunChain(tid int, w *smr.Window, ops []ds.BatchOp, res []ds.BatchResult, first int32, next []int32)
	Keys() []int64
}

// Map is a fixed-bucket-count lock-free hash set.
type Map struct {
	name    string
	s       smr.Scheme
	buckets []bucket
	// sweeps is the per-tid ApplyBatch scratch, indexed by scheme tid.
	sweeps []sweep
}

// sweep is one thread's bucket-sweep scratch. It lives on the heap with
// the map, which is also what lets the open window be handed to a bucket
// through the bucket interface without an allocation: a stack Window
// whose address crosses an interface call escapes, once per batch.
type sweep struct {
	w smr.Window
	// chains[b] is bucket b's chain of the batch in flight: indices into
	// the batch of its first and last op, head < 0 when the bucket has no
	// op. Only the buckets listed in order are ever non-empty, and they
	// are emptied again on the way out, so no call pays O(nbuckets).
	chains []chain
	// next[i] is the batch index of the next op in op i's bucket, < 0 at
	// the end of a chain.
	next []int32
	// order lists the non-empty buckets by first appearance.
	order []int32
	_     [64]byte // keep neighbouring threads' windows off one cache line
}

type chain struct{ head, tail int32 }

var _ ds.Set = (*Map)(nil)

// New builds a hash set with nbuckets buckets over scheme s. kind selects
// the bucket implementation: "harris" or "michael".
func New(s smr.Scheme, opt ds.Options, nbuckets int, kind string) (*Map, error) {
	if nbuckets <= 0 {
		nbuckets = 16
	}
	m := &Map{name: "hashmap-" + kind, s: s, buckets: make([]bucket, nbuckets)}
	for i := range m.buckets {
		var b bucket
		var err error
		switch kind {
		case "harris":
			b, err = harris.New(s, opt)
		case "michael":
			b, err = michael.New(s, opt)
		default:
			return nil, fmt.Errorf("hashmap: unknown bucket kind %q", kind)
		}
		if err != nil {
			return nil, err
		}
		m.buckets[i] = b
	}
	m.sweeps = make([]sweep, s.Heap().Config().Threads)
	for t := range m.sweeps {
		sw := &m.sweeps[t]
		sw.chains = make([]chain, nbuckets)
		for b := range sw.chains {
			sw.chains[b].head = -1
		}
		sw.order = make([]int32, 0, nbuckets)
	}
	return m, nil
}

// Name implements ds.Set.
func (m *Map) Name() string { return m.name }

// index hashes key to a bucket index (Fibonacci hashing).
func (m *Map) index(key int64) int {
	h := uint64(key) * 0x9e3779b97f4a7c15
	return int(h % uint64(len(m.buckets)))
}

func (m *Map) bucket(key int64) bucket { return m.buckets[m.index(key)] }

// Insert implements ds.Set.
func (m *Map) Insert(tid int, key int64) (bool, error) { return m.bucket(key).Insert(tid, key) }

// Delete implements ds.Set.
func (m *Map) Delete(tid int, key int64) (bool, error) { return m.bucket(key).Delete(tid, key) }

// Contains implements ds.Set.
func (m *Map) Contains(tid int, key int64) (bool, error) { return m.bucket(key).Contains(tid, key) }

var (
	_ ds.Iterator     = (*Map)(nil)
	_ ds.TravReporter = (*Map)(nil)
	_ ds.BatchSet     = (*Map)(nil)
)

// ApplyBatch implements ds.BatchSet as a bucket sweep: one fused window
// over the shared scheme, under which each bucket runs all of the
// batch's ops that hash to it as one chain, with its list's cross-op
// predecessor cursor. A key-sorted batch of n ops over b buckets thus
// walks each touched chain once instead of n/b times from the head.
//
// Grouping by bucket leaves every result as the in-order execution
// would: ops on distinct keys commute, and ops on one key share a bucket
// and keep their batch order inside its chain. ops and res are not
// reordered; the chains are index links. The window is stepped once
// between any two ops, whether or not a bucket boundary lies between
// them, so the bracket cadence and the pin bound are those of an
// in-order run; each bucket starts with its cursor dropped.
func (m *Map) ApplyBatch(tid int, ops []ds.BatchOp, res []ds.BatchResult) uint64 {
	sw := &m.sweeps[tid]
	if cap(sw.next) < len(ops) {
		sw.next = make([]int32, 2*len(ops))
	}
	next := sw.next[:len(ops)]
	for i := range ops {
		b := m.index(ops[i].Key)
		c := &sw.chains[b]
		if c.head < 0 {
			c.head = int32(i)
			sw.order = append(sw.order, int32(b))
		} else {
			next[c.tail] = int32(i)
		}
		c.tail = int32(i)
		next[i] = -1
	}
	sw.w = smr.BeginOps(m.s, tid, 0)
	for n, b := range sw.order {
		if n > 0 {
			sw.w.Step()
		}
		m.buckets[b].RunChain(tid, &sw.w, ops, res, sw.chains[b].head, next)
		sw.chains[b].head = -1
	}
	sw.order = sw.order[:0]
	sw.w.EndOps()
	return sw.w.Rebrackets()
}

// Iterate implements ds.Iterator.
func (m *Map) Iterate(tid int, fn func(key int64) bool) error {
	return m.IterateFrom(tid, ds.KeyMin, fn)
}

// IterateFrom implements ds.Iterator by sweeping the buckets in index
// order, each from lo. Emission is monotonic per bucket rather than
// globally ascending; since a key hashes to exactly one bucket, the
// no-duplicates and every-persistent-key guarantees still hold map-wide.
func (m *Map) IterateFrom(tid int, lo int64, fn func(key int64) bool) error {
	stopped := false
	for _, b := range m.buckets {
		err := b.IterateFrom(tid, lo, func(k int64) bool {
			if !fn(k) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// TravSnapshot implements ds.TravReporter by merging the buckets'
// traversal counters.
func (m *Map) TravSnapshot() ds.TravSnapshot {
	var s ds.TravSnapshot
	for _, b := range m.buckets {
		s = s.Merge(b.TravSnapshot())
	}
	return s
}

// Keys returns all unmarked keys; quiescent use only.
func (m *Map) Keys() []int64 {
	var keys []int64
	for _, b := range m.buckets {
		keys = append(keys, b.Keys()...)
	}
	return keys
}
