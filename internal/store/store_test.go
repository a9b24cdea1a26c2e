package store_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/ds"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workload"
)

// ref is a locked model set used as the correctness oracle.
type ref struct {
	mu sync.Mutex
	m  map[int64]bool
}

// do1 runs one operation through Do, the path the binaries use, and
// returns its outcome.
func do1(st *store.Store, kind workload.Op, key int64) (bool, error) {
	res, err := st.Do([]store.Op{{Kind: kind, Key: key}})
	if err != nil {
		return false, err
	}
	return res[0].OK, res[0].Err
}

func (r *ref) apply(op store.Op) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch op.Kind {
	case workload.OpContains:
		return r.m[op.Key]
	case workload.OpInsert:
		if r.m[op.Key] {
			return false
		}
		r.m[op.Key] = true
		return true
	default:
		if !r.m[op.Key] {
			return false
		}
		delete(r.m, op.Key)
		return true
	}
}

// TestBatchesMatchReference drives one client's batched operations through
// a sharded store and checks every result against a model set. With a
// single client the store is sequential, so the model is an exact oracle.
func TestBatchesMatchReference(t *testing.T) {
	st, err := store.New(store.Config{
		Shards:   store.Uniform(4, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
		KeyRange: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	oracle := &ref{m: make(map[int64]bool)}
	rng := workload.RNG(7)
	for round := 0; round < 200; round++ {
		batch := make([]store.Op, 1+rng.Next()%17)
		for i := range batch {
			batch[i] = store.Op{
				Kind: workload.Op(rng.Next() % 3),
				Key:  int64(rng.Next() % 128),
			}
		}
		res, err := st.Do(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, r.Err)
			}
			if want := oracle.apply(batch[i]); r.OK != want {
				t.Fatalf("round %d op %d %v(%d): got %v want %v",
					round, i, batch[i].Kind, batch[i].Key, r.OK, want)
			}
		}
	}
}

// TestHeterogeneousShards is the acceptance scenario: two shards running
// *different* SMR schemes (HP and EBR) serve concurrent clients with zero
// validation faults — per-shard SMR domains never interfere.
func TestHeterogeneousShards(t *testing.T) {
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{
			{Scheme: "hp", Structure: "hashmap", Workers: 2},
			{Scheme: "ebr", Structure: "hashmap", Workers: 2},
		},
		KeyRange: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients, opsPer, batch = 4, 2000, 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workload.RNG(uint64(c) + 1)
			for done := 0; done < opsPer; done += batch {
				ops := make([]store.Op, batch)
				for i := range ops {
					ops[i] = store.Op{Kind: workload.Op(rng.Next() % 3), Key: int64(rng.Next() % 256)}
				}
				res, err := st.Do(ops)
				if err != nil {
					errs[c] = err
					return
				}
				for _, r := range res {
					if r.Err != nil {
						errs[c] = r.Err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if len(s.Shards) != 2 {
		t.Fatalf("shards: %d", len(s.Shards))
	}
	if s.Shards[0].Scheme != "hp" || s.Shards[1].Scheme != "ebr" {
		t.Fatalf("schemes: %s, %s", s.Shards[0].Scheme, s.Shards[1].Scheme)
	}
	if want := uint64(clients * opsPer); s.Ops != want {
		t.Fatalf("ops: %d want %d", s.Ops, want)
	}
	for _, sh := range s.Shards {
		if sh.Ops == 0 {
			t.Fatalf("shard %d served no ops", sh.Shard)
		}
		if sh.Faults != 0 || sh.UnsafeAccesses != 0 || sh.Violations != 0 || sh.StaleUses != 0 {
			t.Fatalf("shard %d (%s): faults=%d unsafe=%d violations=%d stale=%d",
				sh.Shard, sh.Scheme, sh.Faults, sh.UnsafeAccesses, sh.Violations, sh.StaleUses)
		}
	}
}

// TestShardRouting checks the routing hash is deterministic, in range,
// and actually spreads a contiguous key block over every shard.
func TestShardRouting(t *testing.T) {
	st, err := store.New(store.Config{
		Shards:   store.Uniform(8, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
		KeyRange: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seen := make(map[int]int)
	for k := int64(0); k < 1024; k++ {
		s := st.ShardFor(k)
		if s < 0 || s >= st.Shards() {
			t.Fatalf("key %d routed to %d", k, s)
		}
		if s != st.ShardFor(k) {
			t.Fatalf("key %d routing is unstable", k)
		}
		seen[s]++
	}
	if len(seen) != 8 {
		t.Fatalf("1024 keys reached only %d/8 shards", len(seen))
	}
}

// TestCloseShardDrains closes one shard and checks the partial-degradation
// contract: its keys fail with ErrShardClosed while other shards serve,
// and the drained shard's backlog has settled.
func TestCloseShardDrains(t *testing.T) {
	st, err := store.New(store.Config{
		Shards:   store.Uniform(2, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
		KeyRange: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Find keys on both shards and churn them so shard 0 has a lifecycle
	// to drain.
	var k0, k1 int64 = -1, -1
	for k := int64(0); k < 64 && (k0 < 0 || k1 < 0); k++ {
		switch st.ShardFor(k) {
		case 0:
			if k0 < 0 {
				k0 = k
			}
		case 1:
			if k1 < 0 {
				k1 = k
			}
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := st.Insert(k0); err != nil {
			t.Fatal(err)
		}
		if _, err := do1(st, workload.OpDelete, k0); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(k0); !errors.Is(err, store.ErrShardClosed) {
		t.Fatalf("insert on closed shard: %v", err)
	}
	if ok, err := st.Insert(k1); err != nil || !ok {
		t.Fatalf("open shard insert: %v, %v", ok, err)
	}
	if err := st.CloseShard(0); !errors.Is(err, store.ErrShardClosed) {
		t.Fatalf("double shard close: %v", err)
	}
	s := st.Stats()
	if s.Shards[0].Retired != 0 {
		t.Fatalf("drained shard still holds %d retired nodes", s.Shards[0].Retired)
	}
	if s.Shards[0].MaxRetired == 0 {
		t.Fatal("churn never retired anything — test exercised nothing")
	}
}

// TestCloseRejectsLateSubmissions checks the store-wide close contract.
func TestCloseRejectsLateSubmissions(t *testing.T) {
	st, err := store.New(store.Config{
		Shards: store.Uniform(2, store.ShardSpec{Scheme: "hp", Structure: "michael"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := do1(st, workload.OpContains, 1); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("post-close op: %v", err)
	}
	if err := st.Close(); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

// TestRejectsInvalidOpKind checks an out-of-range Op.Kind surfaces as a
// per-op error instead of silently executing some other operation.
func TestRejectsInvalidOpKind(t *testing.T) {
	st, err := store.New(store.Config{
		Shards: store.Uniform(1, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Insert(5); err != nil {
		t.Fatal(err)
	}
	res, err := st.Do([]store.Op{{Kind: 9, Key: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Fatal("invalid op kind executed")
	}
	if ok, err := do1(st, workload.OpContains, 5); err != nil || !ok {
		t.Fatalf("key 5 disturbed by invalid op: %v, %v", ok, err)
	}
}

// TestRejectsInapplicablePair checks construction refuses scheme ×
// structure pairs the paper rules out (HP over Harris's list).
func TestRejectsInapplicablePair(t *testing.T) {
	_, err := store.New(store.Config{
		Shards: store.Uniform(1, store.ShardSpec{Scheme: "hp", Structure: "harris"}),
	})
	if err == nil {
		t.Fatal("hp × harris accepted")
	}
}

// TestReopenShard checks the churn-fault surface: a drained shard can be
// rebuilt and serves again (empty — reopening models a restart).
func TestReopenShard(t *testing.T) {
	st, err := store.New(store.Config{
		Shards:   store.Uniform(2, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
		KeyRange: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var key int64 = -1
	for k := int64(0); k < 64; k++ {
		if st.ShardFor(k) == 0 {
			key = k
			break
		}
	}
	if ok, err := st.Insert(key); err != nil || !ok {
		t.Fatalf("insert: %v, %v", ok, err)
	}
	if err := st.ReopenShard(0); err == nil {
		t.Fatal("reopening an open shard must fail")
	}
	if err := st.CloseShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := do1(st, workload.OpContains, key); !errors.Is(err, store.ErrShardClosed) {
		t.Fatalf("closed shard served: %v", err)
	}
	if err := st.ReopenShard(0); err != nil {
		t.Fatal(err)
	}
	// Reopened shard serves, and serves *empty*.
	if ok, err := do1(st, workload.OpContains, key); err != nil || ok {
		t.Fatalf("reopened shard contains(%d) = %v, %v; want miss on fresh shard", key, ok, err)
	}
	if ok, err := st.Insert(key); err != nil || !ok {
		t.Fatalf("reopened shard insert: %v, %v", ok, err)
	}
	// The resolved spec survives the rebuild.
	spec, err := st.Spec(0)
	if err != nil || spec.Scheme != "ebr" || spec.Workers <= 0 || spec.Slots <= 0 {
		t.Fatalf("reopened spec = %+v, %v", spec, err)
	}
}

// TestGaugesTrackLifecycle checks the telemetry tap: ops progress and the
// retired gauge move with traffic, per shard.
func TestGaugesTrackLifecycle(t *testing.T) {
	st, err := store.New(store.Config{
		Shards:   store.Uniform(2, store.ShardSpec{Scheme: "none", Structure: "michael"}),
		KeyRange: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var key int64 = -1
	for k := int64(0); k < 64; k++ {
		if st.ShardFor(k) == 0 {
			key = k
			break
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := st.Insert(key); err != nil {
			t.Fatal(err)
		}
		if _, err := do1(st, workload.OpDelete, key); err != nil {
			t.Fatal(err)
		}
	}
	g := st.Gauges()
	if len(g) != 2 {
		t.Fatalf("gauges for %d shards, want 2", len(g))
	}
	if g[0].Shard != 0 || g[1].Shard != 1 {
		t.Fatalf("gauge shard ids %d,%d", g[0].Shard, g[1].Shard)
	}
	if g[0].Ops != 40 {
		t.Fatalf("shard 0 ops = %d, want 40", g[0].Ops)
	}
	// The leak baseline never reclaims: every delete's node stays retired.
	if g[0].Retired != 20 || g[0].MaxRetired != 20 {
		t.Fatalf("shard 0 retired = %d (max %d), want 20", g[0].Retired, g[0].MaxRetired)
	}
	if g[0].MaxActive == 0 {
		t.Fatal("shard 0 max_active gauge never moved")
	}
	if g[1].Ops != 0 || g[1].Retired != 0 {
		t.Fatalf("idle shard 1 gauges moved: %+v", g[1])
	}
}

// TestShardGateParksWorker checks the chaos-injection hook end to end: a
// breakpoint armed on a shard's gate parks that worker mid-operation
// while the shard's other worker keeps serving.
func TestShardGateParksWorker(t *testing.T) {
	bp := sched.NewBreakpoints()
	st, err := store.New(store.Config{
		Shards:   []store.ShardSpec{{Scheme: "ebr", Structure: "michael", Workers: 2, Gate: bp}},
		KeyRange: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stall := bp.Arm(0, ds.PointSearchHead, nil, 0)
	// Churn single-op batches from async clients until worker 0 picks one
	// up and parks; whatever worker 1 serves completes normally. The
	// client whose op parked stays blocked in Do until Release.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := do1(st, workload.OpContains, int64(c)); err != nil {
						t.Errorf("client %d contains: %v", c, err)
						return
					}
				}
			}
		}(c)
	}
	<-stall.Reached()
	// Worker 0 is parked; the shard still serves through worker 1.
	if ok, err := st.Insert(3); err != nil || !ok {
		t.Fatalf("insert while worker parked: %v, %v", ok, err)
	}
	close(stop)
	stall.Release()
	wg.Wait()
}
