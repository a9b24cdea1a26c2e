package hashmap_test

import (
	"fmt"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/dstest"
	"repro/internal/ds/hashmap"
	"repro/internal/mem"
	"repro/internal/smr"
)

func TestSuiteHarrisBuckets(t *testing.T)  { dstest.RunSetSuite(t, "hashmap-harris") }
func TestSuiteMichaelBuckets(t *testing.T) { dstest.RunSetSuite(t, "hashmap-michael") }

// TestBucketKind rejects unknown bucket kinds.
func TestBucketKind(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<10, 2, mem.Reuse)
	if _, err := hashmap.New(env.S, ds.Options{}, 4, "btree"); err == nil {
		t.Fatal("expected error for unknown bucket kind")
	}
}

// TestKeysUnion checks Keys() aggregates every bucket.
func TestKeysUnion(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<12, 2, mem.Reuse)
	m, err := hashmap.New(env.S, ds.Options{}, 8, "michael")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 100; k++ {
		if ok, err := m.Insert(0, k); err != nil || !ok {
			t.Fatalf("insert(%d) = %v, %v", k, ok, err)
		}
	}
	if got := len(m.Keys()); got != 100 {
		t.Fatalf("Keys() returned %d keys, want 100", got)
	}
	env.AssertSafe(t)
}

var bucketKinds = []string{"michael", "harris"}

// TestSweepEquivalence holds the bucket sweep to the serial twin, bit for
// bit, on batches it has to regroup: unsorted, with few enough keys that
// one batch repeats them, at sizes from a single op to more than one
// fused window — where a re-bracket lands in the middle of a bucket's
// chain and must drop that bucket's cursor.
func TestSweepEquivalence(t *testing.T) {
	for _, kind := range bucketKinds {
		for _, scheme := range dstest.SchemesFor("hashmap-" + kind) {
			for _, size := range []int{1, 4, 128, smr.DefaultWindow + 188} {
				t.Run(fmt.Sprintf("%s/%s/%d", kind, scheme, size), func(t *testing.T) {
					var twins [2]ds.Set
					var envs [2]*dstest.Env
					for i := range twins {
						envs[i] = dstest.NewEnv(t, scheme, 1, 1<<12, 2, mem.Reuse)
						m, err := hashmap.New(envs[i].S, ds.Options{}, 4, kind)
						if err != nil {
							t.Fatal(err)
						}
						twins[i] = m
					}
					dstest.BatchEquivalenceSet(t, twins[0], twins[1], 8, size, 160, false)
					envs[0].AssertSafe(t)
					envs[1].AssertSafe(t)
				})
			}
		}
	}
}

// TestSweepConcurrent runs sweeps from four threads at once over long
// chains (128 keys per thread and bucket when full), so a bucket's cursor
// is resumed many times per chain while the other threads link and
// unlink its neighbours.
func TestSweepConcurrent(t *testing.T) {
	for _, kind := range bucketKinds {
		for _, scheme := range dstest.SchemesFor("hashmap-" + kind) {
			t.Run(kind+"/"+scheme, func(t *testing.T) {
				env := dstest.NewEnv(t, scheme, 4, 1<<14, 2, mem.Reuse)
				m, err := hashmap.New(env.S, ds.Options{}, 4, kind)
				if err != nil {
					t.Fatal(err)
				}
				dstest.ConcurrentBatchSet(t, env, m, 12, 128, 512)
				env.AssertSafe(t)
			})
		}
	}
}

// sortedContains fills a 16-bucket map with keys 0..1023 and returns it
// with a key-sorted 128-op contains batch over that range.
func sortedContains(t *testing.T, kind string) (*hashmap.Map, []ds.BatchOp) {
	t.Helper()
	env := dstest.NewEnv(t, "ebr", 1, 1<<12, 2, mem.Reuse)
	m, err := hashmap.New(env.S, ds.Options{}, 16, kind)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 1024; k++ {
		if ok, err := m.Insert(0, k); err != nil || !ok {
			t.Fatalf("insert(%d) = %v, %v", k, ok, err)
		}
	}
	// The bucket is the key's low four bits in some fixed order, so these
	// ascending keys give every bucket eight of the ops.
	ops := make([]ds.BatchOp, 128)
	for i := range ops {
		ops[i] = ds.BatchOp{Kind: ds.BatchContains, Key: int64(8*i + (i/2)%8)}
	}
	return m, ops
}

// TestSweepTraversalSteps pins the sweep's point as a count: a key-sorted
// 128-op contains batch on 16 buckets of 64 keys walks each chain about
// once, ≤ 12 traversal steps per op. Walking from the head for every op,
// as the per-op loop did, costs about half a chain each: 34.
func TestSweepTraversalSteps(t *testing.T) {
	for _, kind := range bucketKinds {
		m, ops := sortedContains(t, kind)
		res := make([]ds.BatchResult, len(ops))
		before := m.TravSnapshot().Steps
		m.ApplyBatch(0, ops, res)
		steps := m.TravSnapshot().Steps - before
		for i, r := range res {
			if r.Err != nil || !r.OK {
				t.Fatalf("%s: contains(%d) = %v, %v", kind, ops[i].Key, r.OK, r.Err)
			}
		}
		if perOp := float64(steps) / float64(len(ops)); perOp > 12 {
			t.Errorf("%s: %.1f traversal steps per op in a key-sorted batch, want <= 12", kind, perOp)
		}
	}
}

// TestSweepZeroAlloc: a contains-only batch allocates nothing, the open
// window included — it is shared with the buckets from the map's own
// per-thread scratch, not from the stack through an interface call.
func TestSweepZeroAlloc(t *testing.T) {
	for _, kind := range bucketKinds {
		m, ops := sortedContains(t, kind)
		res := make([]ds.BatchResult, len(ops))
		if allocs := testing.AllocsPerRun(50, func() { m.ApplyBatch(0, ops, res) }); allocs != 0 {
			t.Errorf("%s: contains-only ApplyBatch allocates %v times per batch, want 0", kind, allocs)
		}
	}
}
