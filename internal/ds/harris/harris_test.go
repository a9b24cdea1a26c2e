package harris_test

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ds"
	"repro/internal/ds/dstest"
	"repro/internal/ds/harris"
	"repro/internal/mem"
	"repro/internal/smr"
)

func TestSuite(t *testing.T) { dstest.RunSetSuite(t, "harris") }

// TestSortedInvariant checks the core list invariant after heavy churn:
// unmarked keys appear in strictly increasing order.
func TestSortedInvariant(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 4, 1<<16, 2, mem.Reuse)
	l, err := harris.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dstest.DisjointChurnSet(t, env, l, 2000, 64)
	keys := l.Keys()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("keys not sorted: %v", keys)
	}
	env.AssertSafe(t)
}

// TestInsertDeleteIdempotence property-checks double-insert / double-delete
// semantics against a fresh list for arbitrary key sequences.
func TestInsertDeleteIdempotence(t *testing.T) {
	check := func(keys []uint8) bool {
		env := dstest.NewEnv(t, "ebr", 1, 1<<12, 2, mem.Reuse)
		l, err := harris.New(env.S, ds.Options{})
		if err != nil {
			return false
		}
		for _, k := range keys {
			key := int64(k)
			first, err := l.Insert(0, key)
			if err != nil {
				return false
			}
			second, err := l.Insert(0, key)
			if err != nil || second {
				return false // second insert of the same key must fail
			}
			if !first {
				// Key was already present; delete once and retry.
				if ok, err := l.Delete(0, key); err != nil || !ok {
					return false
				}
				continue
			}
			del1, err := l.Delete(0, key)
			if err != nil || !del1 {
				return false
			}
			del2, err := l.Delete(0, key)
			if err != nil || del2 {
				return false // second delete must fail
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMarkedTraversal pins the property that distinguishes Harris from
// Michael: after marking a run of nodes without unlinking them, a search
// still completes and subsequent operations observe a consistent set.
func TestMarkedTraversal(t *testing.T) {
	env := dstest.NewEnv(t, "none", 1, 1<<12, 2, mem.Reuse)
	l, err := harris.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 10; k++ {
		if ok, err := l.Insert(0, k); err != nil || !ok {
			t.Fatalf("insert(%d) = %v, %v", k, ok, err)
		}
	}
	// Delete 2..9: the deleter marks and (usually) unlinks. To force a
	// marked run we delete middle keys; Harris may unlink each, so assert
	// only the abstract state here — the deterministic marked-run
	// scenarios live in the adversary package, which controls unlinking.
	for k := int64(2); k <= 9; k++ {
		if ok, err := l.Delete(0, k); err != nil || !ok {
			t.Fatalf("delete(%d) = %v, %v", k, ok, err)
		}
	}
	want := []int64{1, 10}
	got := l.Keys()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for k := int64(2); k <= 9; k++ {
		if ok, _ := l.Contains(0, k); ok {
			t.Fatalf("contains(%d) true after delete", k)
		}
	}
}

// TestHeapExhaustion checks that a full heap surfaces as mem.ErrOOM rather
// than corruption, and that reclamation recovers the heap.
func TestHeapExhaustion(t *testing.T) {
	env := dstest.NewEnv(t, "vbr", 1, 70, 2, mem.Reuse)
	l, err := harris.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var inserted []int64
	var oom bool
	for k := int64(0); k < 200; k++ {
		ok, err := l.Insert(0, k)
		if err != nil {
			oom = true
			break
		}
		if ok {
			inserted = append(inserted, k)
		}
	}
	if !oom {
		t.Fatal("expected OOM on a 70-slot heap after 200 inserts")
	}
	// Delete everything; VBR reclaims aggressively, freeing the heap.
	for _, k := range inserted {
		if ok, err := l.Delete(0, k); err != nil || !ok {
			t.Fatalf("delete(%d) = %v, %v", k, ok, err)
		}
	}
	env.S.Flush(0)
	if ok, err := l.Insert(0, 999); err != nil || !ok {
		t.Fatalf("insert after reclamation = %v, %v", ok, err)
	}
}

// TestGuardTrips: rollback storms end in typed guard errors, and a
// failed Insert does not leak its node.
func TestGuardTrips(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<10, 2, mem.Reuse)
	dstest.GuardTripSet(t, env, ds.WNext, func(s smr.Scheme) (ds.Set, error) { return harris.New(s, ds.Options{}) })
	env.AssertSafe(t)
}
