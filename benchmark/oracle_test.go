package main

import (
	"testing"

	"repro/internal/smr"
	"repro/internal/workload"
)

func point(kinds []workload.Op, keys []int64) request {
	a, err := newArena(len(keys))
	if err != nil {
		panic(err)
	}
	return a.keyed(workload.ReqPoint, kinds, keys)
}

// short is sp with a stream short enough to generate in milliseconds.
func short(sp *spec) *spec {
	c := *sp
	c.requests = 1024
	return &c
}

func TestModelAnswersInSubmissionOrder(t *testing.T) {
	m := newModel(8)
	const c, i, d = workload.OpContains, workload.OpInsert, workload.OpDelete
	// contains 3 (miss), insert 3 (new), insert 3 (dup), contains 3 (hit),
	// delete 3 (hit), delete 3 (miss), insert 5 (new)
	r := point([]workload.Op{c, i, i, c, d, d, i}, []int64{3, 3, 3, 3, 3, 3, 5})
	want := uint64(0b1011010)
	if got := m.apply(&r); got != want {
		t.Errorf("fold = %#b, want %#b", got, want)
	}
	if m.present[3] || !m.present[5] {
		t.Errorf("final state: 3 present %v, 5 present %v", m.present[3], m.present[5])
	}
}

func TestFoldCountsWhenTooWideForABitmask(t *testing.T) {
	kinds := make([]workload.Op, 100)
	keys := make([]int64, 100)
	for i := range keys {
		kinds[i], keys[i] = workload.OpInsert, int64(i%50)
	}
	r := point(kinds, keys)
	if got := newModel(64).apply(&r); got != 50 {
		t.Errorf("fold = %d, want 50 successful inserts", got)
	}
	if got := allTrue(100); got != 100 {
		t.Errorf("allTrue(100) = %d", got)
	}
	if got := allTrue(3); got != 0b111 {
		t.Errorf("allTrue(3) = %#b", got)
	}
}

func TestModelRange(t *testing.T) {
	m := newModel(16)
	for _, k := range []int64{2, 5, 9, 12} {
		m.present[k] = true
	}
	scan := request{req: workload.Req{Kind: workload.ReqRangeScan, Lo: 4, Hi: 12}}
	if got, want := m.apply(&scan), foldRange(false, []int64{5, 9}, 2); got != want {
		t.Errorf("scan fold = %#x, want %#x", got, want)
	}
	count := request{req: workload.Req{Kind: workload.ReqRangeCount, Lo: 0, Hi: 16}}
	if got := m.apply(&count); got != 4 {
		t.Errorf("count fold = %d, want 4", got)
	}
	// The scan fold depends on order and content, not just length.
	if foldRange(false, []int64{5, 9}, 2) == foldRange(false, []int64{9, 5}, 2) ||
		foldRange(false, []int64{5, 9}, 2) == foldRange(false, []int64{5, 10}, 2) {
		t.Error("scan fold misses a misplaced or wrong key")
	}
}

func TestVerifyCountsMismatchedRequests(t *testing.T) {
	const i = workload.OpInsert
	batches := []request{point([]workload.Op{i, i}, []int64{1, 2})}
	reqs := []request{
		point([]workload.Op{workload.OpContains, workload.OpContains, workload.OpContains}, []int64{1, 2, 3}),
		point([]workload.Op{workload.OpDelete}, []int64{1}),
	}
	// Executed cyclically: contains{1,2,3}, delete 1, contains{1,2,3}.
	good := []uint64{0b011, 0b1, 0b010}
	v := verify(newModel(8), batches, reqs, func(k int) uint64 { return good[k] }, 3)
	if v.failedOps != 0 || v.first != "" {
		t.Errorf("correct outputs rejected: %+v", v)
	}
	bad := []uint64{0b011, 0b1, 0b011} // a deleted key still reported present
	v = verify(newModel(8), batches, reqs, func(k int) uint64 { return bad[k] }, 3)
	if v.failedOps != 3 || v.first == "" {
		t.Errorf("verdict = %+v, want the 3 ops of the wrong request failed", v)
	}
}

// Every rung of every workload, driven for a short prefix, must give the
// oracle's outputs and leave the oracle's membership behind.
func TestRungsAgreeWithOracle(t *testing.T) {
	const executed = 48
	for i := range specs {
		sp := short(&specs[i])
		reqs, err := sp.genRequests(3)
		if err != nil {
			t.Fatal(err)
		}
		batches, err := sp.genPrefill(3)
		if err != nil {
			t.Fatal(err)
		}
		builders := map[string]func() (rung, error){
			"ds":    func() (rung, error) { return newDSRung(sp, nil) },
			"store": func() (rung, error) { return newStoreRung(sp) },
			"exec":  func() (rung, error) { return newExecRung(sp) },
			"resil": func() (rung, error) { return newResilRung(sp) },
		}
		for layer, build := range builders {
			rg, err := build()
			if err != nil {
				t.Fatalf("%s/%s: %v", sp.name, layer, err)
			}
			if err := prefill(rg, batches); err != nil {
				t.Fatalf("%s/%s: %v", sp.name, layer, err)
			}
			checks := make([]uint64, executed)
			for k := range checks {
				r := &reqs[k%len(reqs)]
				rg.prep(r)
				_, check, failed := rg.run(r)
				if failed != 0 {
					t.Errorf("%s/%s: request %d: %d failed ops", sp.name, layer, k, failed)
				}
				checks[k] = check
			}
			m := newModel(sp.keyRange)
			v := verify(m, batches, reqs, func(k int) uint64 { return checks[k] }, executed)
			if st := rg.store(); st != nil {
				verifyMembership(m, st, &v)
			}
			if v.failedOps != 0 {
				t.Errorf("%s/%s: %d ops disagree with the oracle; first: %s", sp.name, layer, v.failedOps, v.first)
			}
			if err := rg.close(); err != nil {
				t.Errorf("%s/%s: close: %v", sp.name, layer, err)
			}
		}
	}
}

func TestCountingSchemeCountsAndKeepsTheProtocol(t *testing.T) {
	sp, err := specByName("batch-update")
	if err != nil {
		t.Fatal(err)
	}
	var wrapped []*countingScheme
	rg, err := newDSRung(sp, func(s smr.Scheme) smr.Scheme {
		c := &countingScheme{Scheme: s}
		wrapped = append(wrapped, c)
		return c
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rg.close()
	batches, err := sp.genPrefill(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := prefill(rg, batches); err != nil {
		t.Fatal(err)
	}
	var readPtrs, brackets uint64
	for _, c := range wrapped {
		readPtrs += c.readPtrs
		brackets += c.brackets
	}
	// One fused window per shard per prefill batch, and at least one
	// guarded link read per inserted key.
	if want := uint64(len(batches) * sp.shards); brackets != want {
		t.Errorf("brackets = %d, want %d (one per shard per batch)", brackets, want)
	}
	if readPtrs < uint64(sp.keyRange/2) {
		t.Errorf("readPtrs = %d, want at least one per prefilled key", readPtrs)
	}
}
