package store_test

import (
	"errors"
	"sort"
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// TestDoShardExecutesOneGroup checks the scatter-leg submission path: a
// pre-grouped batch lands entirely on the named shard and its results
// align position-for-position with the submitted operations.
func TestDoShardExecutesOneGroup(t *testing.T) {
	st, err := store.New(store.Config{
		Shards:   store.Uniform(4, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
		KeyRange: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Group keys for shard 2 the way the exec layer would.
	var ops []store.Op
	for k := int64(0); k < 256 && len(ops) < 16; k++ {
		if st.ShardFor(k) == 2 {
			ops = append(ops, store.Op{Kind: workload.OpInsert, Key: k})
		}
	}
	res, err := st.DoShard(2, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(res), len(ops))
	}
	for i, r := range res {
		if r.Err != nil || !r.OK {
			t.Fatalf("insert %d: ok=%v err=%v", ops[i].Key, r.OK, r.Err)
		}
	}
	// Membership must be visible through the routed path too.
	for _, op := range ops {
		ok, err := st.Contains(op.Key)
		if err != nil || !ok {
			t.Fatalf("Contains(%d) = %v, %v after DoShard insert", op.Key, ok, err)
		}
	}
	if err := st.CloseShard(2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DoShard(2, ops); !errors.Is(err, store.ErrShardClosed) {
		t.Fatalf("DoShard on a drained shard: got %v, want ErrShardClosed", err)
	}
}

// TestScanShardRangeLeg checks the range-scatter primitive on both an
// ordered structure (globally ascending emission, early upper-bound stop)
// and a partitioned one (bucket-ordered, full sweep): the collected keys
// are exactly the shard's live keys inside [lo, hi), limits cap
// collection, and countOnly still counts.
func TestScanShardRangeLeg(t *testing.T) {
	for _, structure := range []string{"michael", "hashmap"} {
		t.Run(structure, func(t *testing.T) {
			st, err := store.New(store.Config{
				Shards:   store.Uniform(2, store.ShardSpec{Scheme: "ebr", Structure: structure}),
				KeyRange: 512,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			want := map[int][]int64{}
			for k := int64(0); k < 512; k += 3 {
				if _, err := st.Insert(k); err != nil {
					t.Fatal(err)
				}
				if k >= 100 && k < 400 {
					s := st.ShardFor(k)
					want[s] = append(want[s], k)
				}
			}
			for s := 0; s < st.Shards(); s++ {
				keys, count, err := st.ScanShard(s, 100, 400, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				if int(count) != len(want[s]) || len(keys) != len(want[s]) {
					t.Fatalf("shard %d: got %d keys (count %d), want %d", s, len(keys), count, len(want[s]))
				}
				for i, k := range want[s] {
					if keys[i] != k {
						t.Fatalf("shard %d key %d: got %d want %d", s, i, keys[i], k)
					}
				}
				// Limit caps collection; countOnly collects nothing.
				if len(want[s]) > 1 {
					keys, count, err = st.ScanShard(s, 100, 400, 1, false)
					if err != nil || len(keys) != 1 || count != 1 {
						t.Fatalf("shard %d limited scan: keys=%d count=%d err=%v", s, len(keys), count, err)
					}
				}
				keys, count, err = st.ScanShard(s, 100, 400, 0, true)
				if err != nil || keys != nil || int(count) != len(want[s]) {
					t.Fatalf("shard %d countOnly: keys=%v count=%d err=%v", s, keys, count, err)
				}
			}
			// Empty and inverted intervals are cheap no-ops.
			if keys, count, err := st.ScanShard(0, 400, 100, 0, false); err != nil || keys != nil || count != 0 {
				t.Fatalf("inverted interval: keys=%v count=%d err=%v", keys, count, err)
			}
		})
	}
}

// TestScanShardMatchesModel checks range legs against a set model on
// the structures whose iterators start a scan at lo differently — the
// skip list seeks through its tower, the tree prunes its DFS, the hashmap
// filters every bucket — over random [lo, hi), including intervals that
// start below, inside and past the populated keys.
func TestScanShardMatchesModel(t *testing.T) {
	const keyRange = 2048
	for _, structure := range []string{"skiplist", "nmtree", "hashmap"} {
		t.Run(structure, func(t *testing.T) {
			st, err := store.New(store.Config{
				Shards:   store.Uniform(2, store.ShardSpec{Scheme: "ebr", Structure: structure}),
				KeyRange: keyRange,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			model := map[int64]bool{}
			rng := workload.RNG(5)
			for i := 0; i < 3*keyRange; i++ {
				k := int64(rng.Next() % keyRange)
				if rng.Next()%3 == 0 {
					if _, err := st.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				} else {
					if _, err := st.Insert(k); err != nil {
						t.Fatal(err)
					}
					model[k] = true
				}
			}
			for i := 0; i < 60; i++ {
				lo := int64(rng.Next()%(keyRange+64)) - 32
				hi := lo + int64(rng.Next()%1200)
				for s := 0; s < st.Shards(); s++ {
					var want []int64
					for k := range model {
						if k >= lo && k < hi && st.ShardFor(k) == s {
							want = append(want, k)
						}
					}
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					keys, count, err := st.ScanShard(s, lo, hi, 0, false)
					if err != nil {
						t.Fatal(err)
					}
					sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
					if int(count) != len(want) || len(keys) != len(want) {
						t.Fatalf("shard %d [%d, %d): %d keys (count %d), model has %d", s, lo, hi, len(keys), count, len(want))
					}
					for j := range want {
						if keys[j] != want[j] {
							t.Fatalf("shard %d [%d, %d) key #%d: got %d, model %d", s, lo, hi, j, keys[j], want[j])
						}
					}
					store.RecycleScanKeys(keys)
				}
			}
		})
	}
}

// TestDoPartialOpErrors pins the blocking path's partial-failure
// contract: a batch spanning a drained shard still executes its other
// operations, the drained shard's operations report ErrShardClosed in
// their individual Results, and the call itself succeeds. This is the
// semantics the exec layer's per-shard partial results build on.
func TestDoPartialOpErrors(t *testing.T) {
	st, err := store.New(store.Config{
		Shards:   store.Uniform(4, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
		KeyRange: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CloseShard(1); err != nil {
		t.Fatal(err)
	}
	batch := make([]store.Op, 0, 64)
	for k := int64(0); k < 256; k++ {
		batch = append(batch, store.Op{Kind: workload.OpInsert, Key: k})
	}
	res, err := st.Do(batch)
	if err != nil {
		t.Fatalf("Do over a partially drained store must not fail the call: %v", err)
	}
	var closed, served int
	for i, r := range res {
		if st.ShardFor(batch[i].Key) == 1 {
			if !errors.Is(r.Err, store.ErrShardClosed) {
				t.Fatalf("op %d routed to drained shard: err=%v, want ErrShardClosed", i, r.Err)
			}
			closed++
			continue
		}
		if r.Err != nil || !r.OK {
			t.Fatalf("op %d on live shard: ok=%v err=%v", i, r.OK, r.Err)
		}
		served++
	}
	if closed == 0 || served == 0 {
		t.Fatalf("degenerate routing: closed=%d served=%d", closed, served)
	}
}
