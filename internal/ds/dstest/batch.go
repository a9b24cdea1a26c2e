package dstest

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/ds"
	"repro/internal/smr"
)

// sortBatchOps stable-sorts a batch by key, the order the store's fused
// worker feeds ApplyBatch — the arrangement that exercises the cross-op
// predecessor cache, duplicate-key handoffs included.
func sortBatchOps(ops []ds.BatchOp) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
}

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
	r := newRNG(77)
	ops := make([]ds.BatchOp, batchSize)
	res := make([]ds.BatchResult, batchSize)
	var rebrackets uint64
	for bi := 0; bi < batches; bi++ {
		for i := range ops {
			ops[i] = ds.BatchOp{Kind: ds.BatchKind(r.intn(3)), Key: int64(r.intn(keyRange))}
		}
		if sorted {
			sortBatchOps(ops)
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
	// The twins must agree on the final contents, not just per-op results.
	ka, aok := a.(interface{ Keys() []int64 })
	kb, bok := b.(interface{ Keys() []int64 })
	if aok && bok {
		fused, serial := ka.Keys(), kb.Keys()
		sort.Slice(fused, func(i, j int) bool { return fused[i] < fused[j] })
		sort.Slice(serial, func(i, j int) bool { return serial[i] < serial[j] })
		if len(fused) != len(serial) {
			tb.Fatalf("final contents diverge: fused holds %d keys, serial %d", len(fused), len(serial))
		}
		for i := range fused {
			if fused[i] != serial[i] {
				tb.Fatalf("final contents diverge at position %d: fused %d, serial %d", i, fused[i], serial[i])
			}
		}
	}
}

// ConcurrentBatchSet drives fused batches from every thread at once over
// per-thread disjoint key partitions (thread t owns [t*keysPerThread,
// (t+1)*keysPerThread)), so each thread's results check exactly against
// its private model despite full structural concurrency — the -race
// exercise for windows interleaving on one structure and one SMR domain.
func ConcurrentBatchSet(tb testing.TB, env *Env, set ds.Set, batches, batchSize, keysPerThread int) {
	tb.Helper()
	bs, ok := set.(ds.BatchSet)
	if !ok {
		tb.Fatalf("%s does not implement ds.BatchSet", set.Name())
	}
	var wg sync.WaitGroup
	for tid := 0; tid < env.N; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			r := newRNG(uint64(tid) + 909)
			base := int64(tid * keysPerThread)
			model := make(map[int64]bool)
			ops := make([]ds.BatchOp, batchSize)
			res := make([]ds.BatchResult, batchSize)
			for bi := 0; bi < batches; bi++ {
				for i := range ops {
					ops[i] = ds.BatchOp{Kind: ds.BatchKind(r.intn(3)), Key: base + int64(r.intn(keysPerThread))}
				}
				sortBatchOps(ops)
				bs.ApplyBatch(tid, ops, res)
				for i, op := range ops {
					if res[i].Err != nil {
						tb.Errorf("T%d batch %d op %d: %v", tid, bi, i, res[i].Err)
						return
					}
					var want bool
					switch op.Kind {
					case ds.BatchContains:
						want = model[op.Key]
					case ds.BatchInsert:
						want = !model[op.Key]
						model[op.Key] = true
					case ds.BatchDelete:
						want = model[op.Key]
						delete(model, op.Key)
					}
					if res[i].OK != want {
						tb.Errorf("T%d batch %d op %d (kind %d, key %d) = %v, model says %v",
							tid, bi, i, op.Kind, op.Key, res[i].OK, want)
						return
					}
				}
			}
		}(tid)
	}
	wg.Wait()
}
