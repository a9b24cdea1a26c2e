package store_test

import (
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// TestSnapshotProbesBounded pins MigrateShard's snapshot cost: the
// membership probes must track the live keys (O(live keys)), not the key
// universe, and the contents must survive the swap.
func TestSnapshotProbesBounded(t *testing.T) {
	const keyRange = 1 << 16
	const live = 200
	st, err := store.New(store.Config{
		Shards:   store.Uniform(1, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
		KeyRange: keyRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for k := int64(0); k < live; k++ {
		if ok, err := st.Insert(k * 7); err != nil || !ok {
			t.Fatalf("insert(%d): %v, %v", k*7, ok, err)
		}
	}
	if err := st.MigrateShard(0, "ebr"); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	for k := int64(0); k < live; k++ {
		if ok, err := do1(st, workload.OpContains, k*7); err != nil || !ok {
			t.Fatalf("key %d lost across migration: %v, %v", k*7, ok, err)
		}
	}
	ss := st.Stats().Shards[0]
	if ss.SnapshotKeys != live {
		t.Fatalf("snapshot carried %d keys, want %d", ss.SnapshotKeys, live)
	}
	if ss.SwapWindowNanos <= 0 {
		t.Fatalf("swap window not recorded: %+v", ss)
	}
	if ss.SnapshotProbes > 2*ss.SnapshotKeys {
		t.Fatalf("snapshot probed %d for %d live keys, want <= 2x", ss.SnapshotProbes, ss.SnapshotKeys)
	}
}

// TestStoreRestartStorm is the service-level restart-storm regression:
// concurrent clients churn a shared key range through batched requests
// while others sweep far keys, and the traversal counters surfaced
// through Stats must show bounded finds — no guard trips, worst
// single-op traversal within a small multiple of the key range — with
// the EBR backlog settled near its threshold rather than ballooned.
func TestStoreRestartStorm(t *testing.T) {
	const keyRange = 512
	st, err := store.New(store.Config{
		Shards:   store.Uniform(1, store.ShardSpec{Scheme: "ebr", Structure: "michael", Workers: 2}),
		KeyRange: keyRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for k := int64(0); k < keyRange; k += 2 {
		if _, err := st.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 300
	if testing.Short() {
		rounds = 100
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workload.RNG(uint64(c) + 11)
			for r := 0; r < rounds; r++ {
				batch := make([]store.Op, 16)
				for i := range batch {
					if i%4 == 3 {
						// Far-key membership sweeps: the long traversals a
						// restart storm starves.
						batch[i] = store.Op{Kind: workload.OpContains, Key: keyRange - 2}
					} else {
						batch[i] = store.Op{Kind: workload.Op(rng.Next() % 3), Key: int64(rng.Next() % keyRange)}
					}
				}
				res, err := st.Do(batch)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				for _, r := range res {
					if r.Err != nil {
						t.Errorf("client %d: %v", c, r.Err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s := st.Stats()
	if s.GuardTrips != 0 {
		t.Errorf("%d traversal guard trips under churn", s.GuardTrips)
	}
	if bound := uint64(64 * keyRange); s.MaxOpSteps > bound {
		t.Errorf("worst single-op traversal took %d steps, want <= %d: restart storm", s.MaxOpSteps, bound)
	}
	if s.TravSteps == 0 {
		t.Error("traversal counters not flowing through Stats")
	}
	if s.MaxRetired > 8192 {
		t.Errorf("peak retired backlog %d ballooned with no fault injected", s.MaxRetired)
	}
	// The same counters must reach the telemetry tap.
	g := st.Gauges()
	if len(g) != 1 || g[0].TravSteps == 0 {
		t.Errorf("traversal gauges not flowing: %+v", g)
	}
}
