package nmtree_test

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ds"
	"repro/internal/ds/dstest"
	"repro/internal/ds/nmtree"
	"repro/internal/mem"
	"repro/internal/smr"
)

func TestSuite(t *testing.T) { dstest.RunSetSuite(t, "nmtree") }

// TestSetSemantics property-checks the abstract set behaviour against a
// map model for arbitrary operation sequences.
func TestSetSemantics(t *testing.T) {
	type step struct {
		Op  uint8
		Key uint8
	}
	check := func(steps []step) bool {
		env := dstest.NewEnv(t, "ebr", 1, 1<<12, nmtree.PayloadWords, mem.Reuse)
		tr, err := nmtree.New(env.S, ds.Options{})
		if err != nil {
			return false
		}
		model := make(map[int64]bool)
		for _, s := range steps {
			key := int64(s.Key % 32)
			switch s.Op % 3 {
			case 0:
				ok, err := tr.Insert(0, key)
				if err != nil || ok == model[key] {
					return false
				}
				model[key] = true
			case 1:
				ok, err := tr.Delete(0, key)
				if err != nil || ok != model[key] {
					return false
				}
				delete(model, key)
			default:
				ok, err := tr.Contains(0, key)
				if err != nil || ok != model[key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInOrderInvariant checks the BST property after heavy churn: the
// leaf keys come out of an in-order walk sorted.
func TestInOrderInvariant(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 4, 1<<16, nmtree.PayloadWords, mem.Reuse)
	tr, err := nmtree.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dstest.DisjointChurnSet(t, env, tr, 2000, 48)
	keys := tr.Keys()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("in-order walk not sorted: %v", keys)
	}
	env.AssertSafe(t)
}

// TestExternalShape: every stored key lives in a leaf; internal nodes
// only route. Verified indirectly: after inserting n distinct keys the
// walk returns exactly those keys, and deleting them all empties the tree.
func TestExternalShape(t *testing.T) {
	env := dstest.NewEnv(t, "vbr", 1, 1<<12, nmtree.PayloadWords, mem.Reuse)
	tr, err := nmtree.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{8, 3, 12, 1, 5, 10, 14, 0, 2, 4, 6, 9, 11, 13, 15, 7}
	for _, k := range keys {
		if ok, err := tr.Insert(0, k); err != nil || !ok {
			t.Fatalf("insert(%d) = %v, %v", k, ok, err)
		}
	}
	if got := len(tr.Keys()); got != len(keys) {
		t.Fatalf("size = %d, want %d", got, len(keys))
	}
	for _, k := range keys {
		if ok, err := tr.Delete(0, k); err != nil || !ok {
			t.Fatalf("delete(%d) = %v, %v", k, ok, err)
		}
	}
	if got := tr.Keys(); len(got) != 0 {
		t.Fatalf("tree not empty after deleting everything: %v", got)
	}
	// The three sentinel leaves and two sentinel internals survive;
	// everything else must have been retired and (with VBR) reclaimed.
	env.S.Flush(0)
	if active := env.A.Stats().Active(); active != 5 {
		t.Fatalf("active nodes = %d, want the 5 sentinels", active)
	}
	env.AssertSafe(t)
}

// TestSentinelKeySpaceGuard: keys at or above the sentinel range are
// rejected rather than corrupting the routing.
func TestSentinelKeySpaceGuard(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<10, nmtree.PayloadWords, mem.Reuse)
	tr, err := nmtree.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert(0, ds.KeyMax); err == nil {
		t.Fatal("sentinel-range key accepted")
	}
}

// TestGuardTrips: rollback storms end in typed guard errors — a seek that
// rolls back before its first node still spends the op's step budget —
// and an Insert that gives up retires both of its nodes.
func TestGuardTrips(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<10, nmtree.PayloadWords, mem.Reuse)
	dstest.GuardTripSet(t, env, nmtree.WKey, func(s smr.Scheme) (ds.Set, error) { return nmtree.New(s, ds.Options{}) })
	env.AssertSafe(t)
}

// TestCompoundedDeletes drives the multi-deletion stacking path: delete
// many sibling pairs concurrently so cleanups compound, then check the
// final contents and that no node leaked or double-retired.
func TestCompoundedDeletes(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 4, 1<<14, nmtree.PayloadWords, mem.Reuse)
	tr, err := nmtree.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	for k := int64(0); k < n; k++ {
		if ok, err := tr.Insert(0, k); err != nil || !ok {
			t.Fatalf("insert(%d) = %v, %v", k, ok, err)
		}
	}
	done := make(chan error, 4)
	for tid := 0; tid < 4; tid++ {
		go func(tid int) {
			for k := int64(tid); k < n; k += 4 {
				if ok, err := tr.Delete(tid, k); err != nil || !ok {
					done <- err
					return
				}
			}
			done <- nil
		}(tid)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Keys(); len(got) != 0 {
		t.Fatalf("tree not empty: %v", got)
	}
	for tid := 0; tid < 4; tid++ {
		env.S.Flush(tid)
	}
	env.S.Flush(0)
	// n leaves + n internals were detached; only sentinels remain active.
	if active := env.A.Stats().Active(); active != 5 {
		t.Fatalf("active nodes = %d, want 5 (leak or double retire)", active)
	}
	env.AssertSafe(t)
}
