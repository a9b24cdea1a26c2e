package skiplist_test

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ds"
	"repro/internal/ds/dstest"
	"repro/internal/ds/skiplist"
	"repro/internal/mem"
	"repro/internal/smr"
)

func TestSuite(t *testing.T) { dstest.RunSetSuite(t, "skiplist") }

// TestSortedInvariant checks level-0 ordering after heavy churn.
func TestSortedInvariant(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 4, 1<<16, skiplist.PayloadWords, mem.Reuse)
	l, err := skiplist.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dstest.DisjointChurnSet(t, env, l, 1500, 64)
	keys := l.Keys()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("keys not sorted: %v", keys)
	}
	env.AssertSafe(t)
}

// TestSetSemantics property-checks the abstract set behaviour against a
// map model for arbitrary operation sequences.
func TestSetSemantics(t *testing.T) {
	type step struct {
		Op  uint8
		Key uint8
	}
	check := func(steps []step) bool {
		env := dstest.NewEnv(t, "ebr", 1, 1<<12, skiplist.PayloadWords, mem.Reuse)
		l, err := skiplist.New(env.S, ds.Options{})
		if err != nil {
			return false
		}
		model := make(map[int64]bool)
		for _, s := range steps {
			key := int64(s.Key % 32)
			switch s.Op % 3 {
			case 0:
				ok, err := l.Insert(0, key)
				if err != nil || ok == model[key] {
					return false
				}
				model[key] = true
			case 1:
				ok, err := l.Delete(0, key)
				if err != nil || ok != model[key] {
					return false
				}
				delete(model, key)
			default:
				ok, err := l.Contains(0, key)
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

// TestTowerRetirement checks that deleting a tall tower really detaches it
// from every level: after delete, re-inserting and searching neighbouring
// keys must behave as if the node never existed.
func TestTowerRetirement(t *testing.T) {
	env := dstest.NewEnv(t, "vbr", 1, 1<<12, skiplist.PayloadWords, mem.Reuse)
	l, err := skiplist.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 256; k++ {
		if ok, err := l.Insert(0, k); err != nil || !ok {
			t.Fatalf("insert(%d) = %v, %v", k, ok, err)
		}
	}
	for k := int64(0); k < 256; k += 2 {
		if ok, err := l.Delete(0, k); err != nil || !ok {
			t.Fatalf("delete(%d) = %v, %v", k, ok, err)
		}
	}
	env.S.Flush(0)
	for k := int64(0); k < 256; k++ {
		want := k%2 == 1
		ok, err := l.Contains(0, k)
		if err != nil {
			t.Fatalf("contains(%d): %v", k, err)
		}
		if ok != want {
			t.Fatalf("contains(%d) = %v, want %v", k, ok, want)
		}
	}
	if got := len(l.Keys()); got != 128 {
		t.Fatalf("size = %d, want 128", got)
	}
	env.AssertSafe(t)
}

// TestGuardTrips: rollback storms end in typed guard errors — the ops'
// own retry loops are budgeted like find's — and a failed Insert does not
// leak its node.
func TestGuardTrips(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<10, skiplist.PayloadWords, mem.Reuse)
	dstest.GuardTripSet(t, env, ds.WKey, func(s smr.Scheme) (ds.Set, error) { return skiplist.New(s, ds.Options{}) })
	env.AssertSafe(t)
}

// TestIterateFromSeeks pins the range leg's cost: a scan from the middle
// of a 2 048-key list descends the tower to its start instead of walking
// the ~1 000 keys below it from the head, so 128 emissions cost the
// descent plus 128 level-0 steps.
func TestIterateFromSeeks(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<13, skiplist.PayloadWords, mem.Reuse)
	l, err := skiplist.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n, emit = 2048, 128
	for k := int64(0); k < n; k++ {
		if ok, err := l.Insert(0, k); err != nil || !ok {
			t.Fatalf("insert(%d) = %v, %v", k, ok, err)
		}
	}
	before := l.TravSnapshot().Steps
	var got []int64
	if err := l.IterateFrom(0, n/2, func(k int64) bool {
		got = append(got, k)
		return len(got) < emit
	}); err != nil {
		t.Fatal(err)
	}
	for i, k := range got {
		if k != n/2+int64(i) {
			t.Fatalf("emission %d is %d, want %d", i, k, n/2+int64(i))
		}
	}
	if len(got) != emit {
		t.Fatalf("%d emissions, want %d", len(got), emit)
	}
	if steps := l.TravSnapshot().Steps - before; steps > 200 {
		t.Fatalf("scan from the median took %d traversal steps for %d keys, want <= 200: the seek is not engaging", steps, emit)
	}
}
