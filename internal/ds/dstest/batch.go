package dstest

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/drive"
	"repro/internal/smr"
	"repro/internal/workload"
)

// BatchEquivalenceSet checks the fused batch path against a serial twin:
// the same op sequence runs through a's ApplyBatch (one amortized SMR
// bracket per batch) and through b's public per-op methods in the same
// order, and every single result must match bit for bit. Batches longer
// than the fused window's K verify the mid-window re-bracket cadence
// actually engages without perturbing results. sorted key-sorts each
// batch first, the store's arrangement; unsorted batches hold ApplyBatch
// to its contract that it needs no order, and make a structure that
// regroups the batch (the hashmap's bucket sweep) prove the regrouping
// invisible.
func BatchEquivalenceSet(tb testing.TB, a, b ds.Set, batches, batchSize, keyRange int, sorted bool) {
	tb.Helper()
	ab, ok := a.(ds.BatchSet)
	if !ok {
		tb.Fatalf("%s does not implement ds.BatchSet", a.Name())
	}
	r := workload.RNG(77)
	ops := make([]ds.BatchOp, batchSize)
	res := make([]ds.BatchResult, batchSize)
	var rebrackets uint64
	for bi := 0; bi < batches; bi++ {
		for i := range ops {
			ops[i] = ds.BatchOp{Kind: ds.BatchKind(r.Intn(3)), Key: int64(r.Intn(keyRange))}
		}
		if sorted {
			// The store's fused worker feeds ApplyBatch stable-sorted by
			// key: the arrangement that exercises the cross-op predecessor
			// cache, duplicate-key handoffs included.
			sort.SliceStable(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
		}
		rebrackets += ab.ApplyBatch(0, ops, res)
		for i, op := range ops {
			if res[i].Err != nil {
				tb.Fatalf("batch %d op %d: fused (kind %d, key %d): %v", bi, i, op.Kind, op.Key, res[i].Err)
			}
			var want bool
			var err error
			switch op.Kind {
			case ds.BatchContains:
				want, err = b.Contains(0, op.Key)
			case ds.BatchInsert:
				want, err = b.Insert(0, op.Key)
			case ds.BatchDelete:
				want, err = b.Delete(0, op.Key)
			}
			if err != nil {
				tb.Fatalf("batch %d op %d: serial (kind %d, key %d): %v", bi, i, op.Kind, op.Key, err)
			}
			if res[i].OK != want {
				tb.Fatalf("batch %d op %d (kind %d, key %d): fused %v, serial %v",
					bi, i, op.Kind, op.Key, res[i].OK, want)
			}
		}
	}
	if batchSize > smr.DefaultWindow && rebrackets == 0 {
		tb.Errorf("no mid-window re-brackets across %d fused batches of %d ops (window K=%d)",
			batches, batchSize, smr.DefaultWindow)
	}
	// The twins must agree on the final contents, not just per-op results,
	// read through the guarded iterator the store's range scans use.
	fused, serial := Keys(tb, a), Keys(tb, b)
	slices.Sort(fused)
	slices.Sort(serial)
	if len(fused) != len(serial) {
		tb.Fatalf("final contents diverge: fused holds %d keys, serial %d", len(fused), len(serial))
	}
	for i := range fused {
		if fused[i] != serial[i] {
			tb.Fatalf("final contents diverge at position %d: fused %d, serial %d", i, fused[i], serial[i])
		}
	}
}

// Keys returns s's live keys in emission order, read through ds.Iterator
// on thread 0. A set that does not implement ds.Iterator fails the test.
func Keys(tb testing.TB, s ds.Set) []int64 {
	tb.Helper()
	it, ok := s.(ds.Iterator)
	if !ok {
		tb.Fatalf("%s does not implement ds.Iterator", s.Name())
	}
	var keys []int64
	if err := it.Iterate(0, func(k int64) bool { keys = append(keys, k); return true }); err != nil {
		tb.Fatalf("%s: iterate: %v", s.Name(), err)
	}
	return keys
}

// AssertOrdered checks an ordered set after a disjoint script: one scan
// reports exactly the keys the threads' models hold, ascending. The
// ordered iterators emit only keys above the last one emitted, so a key
// stored out of order goes missing from the scan and fails the check.
func AssertOrdered(tb testing.TB, s ds.Set, res drive.Result) {
	tb.Helper()
	var want []int64
	for _, m := range res.Models {
		for k, in := range m {
			if in {
				want = append(want, k)
			}
		}
	}
	slices.Sort(want)
	if got := Keys(tb, s); !slices.Equal(got, want) {
		tb.Fatalf("%s: scan reports %v, the models hold %v", s.Name(), got, want)
	}
}
