package store_test

import (
	"sync"
	"testing"

	"repro/internal/ds"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestFusedBatchStats checks the fused hot path engages and its counters
// move: multi-op point batches must fuse (and key-sort when unsorted),
// single-op requests — the per-op-bracket path — must not.
func TestFusedBatchStats(t *testing.T) {
	for _, tc := range []struct {
		name   string
		perReq int // ops per request
	}{{"fused", 16}, {"single-op", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.New(store.Config{
				Shards:   []store.ShardSpec{{Scheme: "ebr", Structure: "michael"}},
				KeyRange: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			// Descending keys: the fused worker must sort before executing.
			ops := make([]store.Op, 16)
			for i := range ops {
				ops[i] = store.Op{Kind: workload.OpInsert, Key: int64(len(ops) - i)}
			}
			for lo := 0; lo < len(ops); lo += tc.perReq {
				res, err := st.Do(ops[lo : lo+tc.perReq])
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range res {
					if r.Err != nil || !r.OK {
						t.Fatalf("insert %d: ok=%v err=%v", lo+i, r.OK, r.Err)
					}
				}
			}
			// A single-op batch never fuses.
			if _, err := do1(st, workload.OpContains, 1); err != nil {
				t.Fatal(err)
			}
			s := st.Stats()
			if tc.perReq == 1 {
				if s.FusedBatches != 0 || s.FusedOps != 0 || s.Ops != 17 {
					t.Fatalf("single-op requests: %d fused batches, %d fused ops, %d ops; want 0, 0, 17",
						s.FusedBatches, s.FusedOps, s.Ops)
				}
				return
			}
			if s.FusedBatches != 1 || s.FusedOps != 16 {
				t.Fatalf("fused counters: %d batches, %d ops; want 1, 16", s.FusedBatches, s.FusedOps)
			}
			if s.BatchSorts != 1 {
				t.Fatalf("descending batch recorded %d sorts, want 1", s.BatchSorts)
			}
			if s.Ops != 17 || s.Hits != 17 {
				t.Fatalf("stripe totals: ops=%d hits=%d, want 17, 17", s.Ops, s.Hits)
			}
		})
	}
}

// TestDoIntoEquivalence checks DoInto against Do across shard counts:
// same ops, same results, caller-owned result slice filled in submission
// order regardless of the key-sorted fused execution underneath.
func TestDoIntoEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		st, err := store.New(store.Config{
			Shards:   store.Uniform(shards, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
			KeyRange: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := workload.RNG(7)
		ops := make([]store.Op, 48)
		for i := range ops {
			ops[i] = store.Op{Kind: workload.Op(rng.Next() % 3), Key: int64(rng.Next() % 512)}
		}
		model := make(map[int64]bool)
		want := make([]bool, len(ops))
		for i, op := range ops {
			switch op.Kind {
			case workload.OpContains:
				want[i] = model[op.Key]
			case workload.OpInsert:
				want[i] = !model[op.Key]
				model[op.Key] = true
			case workload.OpDelete:
				want[i] = model[op.Key]
				delete(model, op.Key)
			}
		}
		res := make([]store.Result, len(ops))
		if err := st.DoInto(ops, res); err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Err != nil {
				t.Fatalf("%d shards, op %d: %v", shards, i, res[i].Err)
			}
			if res[i].OK != want[i] {
				t.Fatalf("%d shards, op %d (kind %d, key %d) = %v, model says %v",
					shards, i, ops[i].Kind, ops[i].Key, res[i].OK, want[i])
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// runParkedBacklog serves a fixed volume of churn through a two-worker
// shard whose worker 0 is parked at the traversal head breakpoint the
// whole time, perReq ops per request, and returns the peak retired
// backlog. Fixed work (not fixed time) makes the fused/per-op comparison
// fair: both arms retire the same node volume, so any widening of the
// peak is the bracket cadence's doing.
func runParkedBacklog(t *testing.T, scheme string, perReq int) uint64 {
	t.Helper()
	bp := sched.NewBreakpoints()
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:    scheme,
			Structure: "michael",
			Workers:   2,
			Gate:      bp,
		}},
		KeyRange: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stall := bp.Arm(0, ds.PointSearchHead, nil, 0)
	// A sacrificial client churns single-op requests until one lands on
	// worker 0 and parks there; it stays blocked in Do until Release.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := do1(st, workload.OpContains, 1); err != nil {
					t.Errorf("sacrificial contains: %v", err)
					return
				}
			}
		}
	}()
	<-stall.Reached()
	// Worker 0 is parked holding an open bracket; drive the fixed churn
	// volume through the surviving worker.
	rng := workload.RNG(99)
	ops := make([]store.Op, 32)
	res := make([]store.Result, 32)
	for round := 0; round < 200; round++ {
		for i := range ops {
			kind := workload.OpInsert
			if rng.Next()%2 == 0 {
				kind = workload.OpDelete
			}
			ops[i] = store.Op{Kind: kind, Key: int64(rng.Next() % 512)}
		}
		for lo := 0; lo < len(ops); lo += perReq {
			if err := st.DoInto(ops[lo:lo+perReq], res[lo:lo+perReq]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range res {
			if res[i].Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, res[i].Err)
			}
		}
	}
	close(stop)
	stall.Release()
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return st.Stats().MaxRetired
}

// TestBatchBacklogParkedNeighbor is the robustness guard on bracket
// amortization: with a neighbour worker parked mid-operation, the fused
// arm's peak retired backlog must stay within 2x of the per-op-bracket
// reference's — the same churn issued as 1-op requests — over identical
// work: the K-op re-bracket cadence, not the batch length, bounds how
// long a fused window pins reclamation.
func TestBatchBacklogParkedNeighbor(t *testing.T) {
	// One scheme per reclamation family: epoch (ebr), pointer (hp),
	// version (vbr).
	for _, scheme := range []string{"ebr", "hp", "vbr"} {
		t.Run(scheme, func(t *testing.T) {
			fused := runParkedBacklog(t, scheme, 32)
			serial := runParkedBacklog(t, scheme, 1)
			// The small additive floor absorbs retire-list jitter when the
			// baseline peak is a handful of nodes.
			if fused > 2*serial+64 {
				t.Fatalf("fused peak retired backlog %d exceeds 2x per-op %d under a parked neighbour", fused, serial)
			}
		})
	}
}
