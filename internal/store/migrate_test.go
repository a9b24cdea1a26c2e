package store_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workload"
)

// keysOn returns the first n keys in [0, keyRange) routed to shard s.
func keysOn(st *store.Store, s, n, keyRange int) []int64 {
	var keys []int64
	for k := int64(0); k < int64(keyRange) && len(keys) < n; k++ {
		if st.ShardFor(k) == s {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestMigrateShardPreservesContents is the core swap contract: a quiesced
// migration carries the shard's exact set contents onto the new scheme,
// updates every current-scheme surface (Stats, Spec), and bumps the
// slot's epoch and migration counters — while the neighbour shard is
// untouched.
func TestMigrateShardPreservesContents(t *testing.T) {
	st, err := store.New(store.Config{
		Shards:   store.Uniform(2, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
		KeyRange: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := keysOn(st, 0, 1<<30, 256) // every shard-0 key
	present := make(map[int64]bool)
	for i, k := range keys {
		if i%2 == 0 {
			if ok, err := st.Insert(k); err != nil || !ok {
				t.Fatalf("insert(%d): %v, %v", k, ok, err)
			}
			present[k] = true
		}
	}
	// Churn a few so the old shard has retired nodes too.
	for i := 0; i < 30; i++ {
		if _, err := do1(st, workload.OpDelete, keys[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Insert(keys[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := do1(st, workload.OpDelete, keys[1]); err != nil {
		t.Fatal(err)
	}
	delete(present, keys[1])

	if err := st.MigrateShard(0, "hp"); err != nil {
		t.Fatal(err)
	}
	// Exact membership: present keys survived, absent keys stayed absent.
	for _, k := range keys {
		ok, err := do1(st, workload.OpContains, k)
		if err != nil {
			t.Fatalf("contains(%d) post-migration: %v", k, err)
		}
		if ok != present[k] {
			t.Fatalf("key %d: present=%v post-migration, want %v", k, ok, present[k])
		}
	}
	// The migrated shard serves updates under the new scheme.
	if ok, err := st.Insert(keys[3]); err != nil || ok != !present[keys[3]] {
		t.Fatalf("post-migration insert: %v, %v", ok, err)
	}
	spec, err := st.Spec(0)
	if err != nil || spec.Scheme != "hp" {
		t.Fatalf("spec post-migration = %+v, %v", spec, err)
	}
	s := st.Stats()
	if s.Shards[0].Scheme != "hp" {
		t.Fatalf("stats scheme = %s, want hp (the current scheme, not the deploy spec)", s.Shards[0].Scheme)
	}
	if s.Shards[0].Migrations != 1 || s.Shards[0].Epoch != 1 {
		t.Fatalf("shard 0 migrations=%d epoch=%d, want 1/1", s.Shards[0].Migrations, s.Shards[0].Epoch)
	}
	if s.Shards[1].Migrations != 0 || s.Shards[1].Epoch != 0 || s.Shards[1].Scheme != "ebr" {
		t.Fatalf("neighbour shard disturbed: %+v", s.Shards[1])
	}
	if s.Migrations != 1 {
		t.Fatalf("aggregate migrations = %d", s.Migrations)
	}
	if s.Shards[0].Faults != 0 || s.Shards[0].UnsafeAccesses != 0 {
		t.Fatalf("migration produced safety events: %+v", s.Shards[0])
	}
}

// TestMigrateShardErrors checks every refusal path leaves the shard
// serving: bad shard index, unknown scheme, paper-inapplicable pair,
// already-drained shard, closed store.
func TestMigrateShardErrors(t *testing.T) {
	st, err := store.New(store.Config{
		// harris: the structure HP cannot guard (Appendix E).
		Shards:   store.Uniform(1, store.ShardSpec{Scheme: "ebr", Structure: "harris"}),
		KeyRange: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.MigrateShard(5, "hp"); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if err := st.MigrateShard(0, "nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := st.MigrateShard(0, "hp"); err == nil {
		t.Fatal("hp × harris accepted (Appendix E)")
	}
	// Every refusal above must leave the shard serving on ebr.
	if _, err := st.Insert(1); err != nil {
		t.Fatalf("shard stopped serving after refused migrations: %v", err)
	}
	if spec, _ := st.Spec(0); spec.Scheme != "ebr" {
		t.Fatalf("scheme changed by refused migration: %s", spec.Scheme)
	}
	if err := st.CloseShard(0); err != nil {
		t.Fatal(err)
	}
	if err := st.MigrateShard(0, "vbr"); !errors.Is(err, store.ErrShardClosed) {
		t.Fatalf("migrating a drained shard: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.MigrateShard(0, "vbr"); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("migrating on a closed store: %v", err)
	}
}

// TestMigrateShardRacingClients migrates a shard up the ladder twice
// while concurrent clients hammer the store (the -race satellite).
// Clients tolerate the transient ErrShardClosed a swap window produces;
// a set of pinned keys the clients never touch must survive both
// migrations; nothing may trip a safety counter.
func TestMigrateShardRacingClients(t *testing.T) {
	const keyRange = 512
	st, err := store.New(store.Config{
		// A worker descheduled mid-window pins its ebr shard's epoch, and
		// the clients below retire at memory speed meanwhile: the default
		// heap (about 4 700 slots) can run dry before the worker runs
		// again on a loaded box. This test is about migration, not that
		// stall, so the heap leaves room for it.
		Shards:   store.Uniform(2, store.ShardSpec{Scheme: "ebr", Structure: "michael", Workers: 2, Slots: 1 << 15}),
		KeyRange: keyRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Pinned keys live in [256, 512): clients only mutate [0, 256).
	var pinned []int64
	for k := int64(256); k < keyRange; k++ {
		if st.ShardFor(k) == 0 {
			pinned = append(pinned, k)
		}
	}
	for _, k := range pinned {
		if ok, err := st.Insert(k); err != nil || !ok {
			t.Fatalf("pin insert(%d): %v, %v", k, ok, err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workload.RNG(uint64(c) + 99)
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]store.Op, 8)
				for i := range batch {
					batch[i] = store.Op{Kind: workload.Op(rng.Next() % 3), Key: int64(rng.Next() % 256)}
				}
				res, err := st.Do(batch)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				for _, r := range res {
					// ErrShardClosed is the migration window showing
					// through; anything else is a real failure.
					if r.Err != nil && !errors.Is(r.Err, store.ErrShardClosed) {
						t.Errorf("client %d: %v", c, r.Err)
						return
					}
				}
			}
		}(c)
	}
	for _, scheme := range []string{"ibr", "hp"} {
		time.Sleep(20 * time.Millisecond)
		if err := st.MigrateShard(0, scheme); err != nil {
			t.Fatalf("migrate → %s under load: %v", scheme, err)
		}
		for _, k := range pinned {
			if ok, err := do1(st, workload.OpContains, k); err != nil || !ok {
				t.Fatalf("pinned key %d lost after → %s: %v, %v", k, scheme, ok, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	s := st.Stats()
	if s.Shards[0].Scheme != "hp" || s.Shards[0].Migrations != 2 || s.Shards[0].Epoch != 2 {
		t.Fatalf("shard 0 after ladder: %+v", s.Shards[0])
	}
	if s.Faults != 0 || s.UnsafeAccesses != 0 || s.Violations != 0 || s.StaleUses != 0 {
		t.Fatalf("safety events under racing migration: %+v", s)
	}
}

// TestReopenRacesClose pits ReopenShard against CloseShard on the same
// shard: whoever loses must fail cleanly (ErrShardClosed / "is open" /
// swapped-concurrently), never race on the closed flag or leak workers.
func TestReopenRacesClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		st, err := store.New(store.Config{
			Shards: store.Uniform(1, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); _ = st.CloseShard(0) }()
		go func() { defer wg.Done(); _ = st.ReopenShard(0) }()
		wg.Wait()
		_ = st.Close()
	}
}

// TestMigrateShardWithParkedWorker checks the grace path: a worker
// parked at a fault breakpoint cannot drain, and migration must proceed
// without it — contents preserved, new scheme serving — while the
// straggler stays parked on the orphaned incarnation until its fault
// heals.
func TestMigrateShardWithParkedWorker(t *testing.T) {
	bp := sched.NewBreakpoints()
	st, err := store.New(store.Config{
		Shards:       []store.ShardSpec{{Scheme: "ebr", Structure: "michael", Workers: 2, Gate: bp}},
		KeyRange:     64,
		MigrateGrace: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := keysOn(st, 0, 6, 64)
	for _, k := range keys {
		if ok, err := st.Insert(k); err != nil || !ok {
			t.Fatalf("insert(%d): %v, %v", k, ok, err)
		}
	}
	// Park worker 0 mid-operation, exactly as the stall fault does: pump
	// single-op probes until worker 0 picks one up and parks (probes that
	// land on worker 1 complete normally). The probe that parks blocks in
	// Do until the release.
	stall := bp.Arm(0, ds.PointSearchHead, nil, 0)
	var probes sync.WaitGroup
	pumpStop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stall.Reached():
				return
			case <-pumpStop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			probes.Add(1)
			go func() {
				defer probes.Done()
				_, _ = do1(st, workload.OpContains, keys[0])
			}()
		}
	}()
	defer close(pumpStop)
	<-stall.Reached()

	start := time.Now()
	if err := st.MigrateShard(0, "ibr"); err != nil {
		t.Fatalf("migrate with parked worker: %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("migration blocked on the parked worker for %v", waited)
	}
	for _, k := range keys {
		if ok, err := do1(st, workload.OpContains, k); err != nil || !ok {
			t.Fatalf("key %d lost migrating around the straggler: %v, %v", k, ok, err)
		}
	}
	if spec, _ := st.Spec(0); spec.Scheme != "ibr" {
		t.Fatalf("scheme = %s, want ibr", spec.Scheme)
	}
	// The straggler is still parked on the orphaned shard; healing the
	// fault releases it, it completes its probe against the old heap, and
	// every outstanding probe drains.
	stall.Release()
	drained := make(chan struct{})
	go func() {
		probes.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler never drained after release")
	}
}
