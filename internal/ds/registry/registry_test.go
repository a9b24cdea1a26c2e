package registry_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/dstest"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/smr/all"
)

// TestEverySchemeConstructsEveryStructure: construction must succeed for
// every (scheme, structure) pair — even the non-applicable ones, whose
// failure mode is unsafe behaviour at runtime (exercised by the adversary
// executions), never a constructor error.
func TestEverySchemeConstructsEveryStructure(t *testing.T) {
	for _, structure := range registry.Names() {
		info := registry.MustGet(structure)
		for _, scheme := range all.Names() {
			env := dstest.NewEnv(t, scheme, 2, 1<<10, info.PayloadWords, mem.Reuse)
			var err error
			switch info.Kind {
			case registry.KindSet:
				_, err = info.NewSet(env.S, ds.Options{})
			case registry.KindQueue:
				_, err = info.NewQueue(env.S, ds.Options{})
			case registry.KindStack:
				_, err = info.NewStack(env.S, ds.Options{})
			}
			if err != nil {
				t.Errorf("%s × %s: construction failed: %v", scheme, structure, err)
			}
		}
	}
}

// TestRegistrySmoke: every structure passes a short sequential dstest pass
// under every applicable safe scheme.
func TestRegistrySmoke(t *testing.T) {
	for _, structure := range registry.Names() {
		info := registry.MustGet(structure)
		for _, scheme := range all.SafeNames() {
			if !registry.Applicable(scheme, structure) {
				continue
			}
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				env := dstest.NewEnv(t, scheme, 1, 1<<12, info.PayloadWords, mem.Reuse)
				switch info.Kind {
				case registry.KindSet:
					set, err := info.NewSet(env.S, ds.Options{})
					if err != nil {
						t.Fatal(err)
					}
					dstest.SequentialSet(t, set, 32, 600)
				case registry.KindQueue:
					q, err := info.NewQueue(env.S, ds.Options{})
					if err != nil {
						t.Fatal(err)
					}
					dstest.SequentialQueue(t, q, 600)
				case registry.KindStack:
					st, err := info.NewStack(env.S, ds.Options{})
					if err != nil {
						t.Fatal(err)
					}
					dstest.SequentialStack(t, st, 600)
				}
				env.AssertSafe(t)
			})
		}
	}
}

// TestInfoConsistency: every Info carries exactly the factory its Kind
// promises, a payload size an arena can host, and a name matching its key.
func TestInfoConsistency(t *testing.T) {
	for _, name := range registry.Names() {
		info := registry.MustGet(name)
		if info.Name != name {
			t.Errorf("%s: Info.Name = %q", name, info.Name)
		}
		if info.PayloadWords < 2 || info.PayloadWords > registry.MaxPayloadWords {
			t.Errorf("%s: PayloadWords = %d outside [2, %d]", name, info.PayloadWords, registry.MaxPayloadWords)
		}
		set, queue, stack := info.NewSet != nil, info.NewQueue != nil, info.NewStack != nil
		switch info.Kind {
		case registry.KindSet:
			if !set || queue || stack {
				t.Errorf("%s: set kind with factories set=%v queue=%v stack=%v", name, set, queue, stack)
			}
		case registry.KindQueue:
			if set || !queue || stack {
				t.Errorf("%s: queue kind with wrong factories", name)
			}
		case registry.KindStack:
			if set || queue || !stack {
				t.Errorf("%s: stack kind with wrong factories", name)
			}
		}
	}
}

// TestEverySetIterates: every registered set implements ds.Iterator.
// store.MigrateShard snapshots a shard through its iterator and has no
// fallback, so a set without one could not be migrated.
func TestEverySetIterates(t *testing.T) {
	for _, name := range registry.SetNames() {
		info := registry.MustGet(name)
		env := dstest.NewEnv(t, "ebr", 1, 1<<10, info.PayloadWords, mem.Reuse)
		set, err := info.NewSet(env.S, ds.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := set.(ds.Iterator); !ok {
			t.Errorf("%s: set does not implement ds.Iterator", name)
		}
	}
}

// TestGetUnknown: unknown names report the available structures.
func TestGetUnknown(t *testing.T) {
	if _, err := registry.Get("nosuch"); err == nil {
		t.Error("unknown structure must error")
	}
	if registry.Applicable("ebr", "nosuch") {
		t.Error("unknown structure cannot be applicable")
	}
}

// TestApplicabilityClassification pins the paper's Appendix E analysis:
// per-pointer protection schemes are not applicable to structures whose
// searches traverse retired nodes.
func TestApplicabilityClassification(t *testing.T) {
	for _, scheme := range []string{"hp", "ibr", "he"} {
		if registry.Applicable(scheme, "harris") {
			t.Errorf("%s must not be applicable to harris", scheme)
		}
		if !registry.Applicable(scheme, "michael") {
			t.Errorf("%s must be applicable to michael", scheme)
		}
	}
	for _, scheme := range []string{"ebr", "vbr", "nbr", "rc"} {
		if !registry.Applicable(scheme, "harris") {
			t.Errorf("%s must be applicable to harris", scheme)
		}
	}
}

// TestListingsDeterministic pins the ordering contract experiment tables
// rely on: every listing is sorted, stable across calls, and the
// traversal subset holds exactly the full-order traversal structures.
func TestListingsDeterministic(t *testing.T) {
	for name, list := range map[string][]string{
		"Names":             registry.Names(),
		"SetNames":          registry.SetNames(),
		"TraversalSetNames": registry.TraversalSetNames(),
	} {
		if !sort.StringsAreSorted(list) {
			t.Errorf("%s not sorted: %v", name, list)
		}
	}
	if again := registry.Names(); !reflect.DeepEqual(again, registry.Names()) {
		t.Error("Names unstable across calls")
	}
	want := []string{"harris", "nmtree", "skiplist"}
	if got := registry.TraversalSetNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("TraversalSetNames = %v, want %v", got, want)
	}
	// The hashmaps are set structures but hash-partitioned: they must be
	// in SetNames and out of the traversal listing.
	sets := registry.SetNames()
	has := func(s string) bool {
		for _, n := range sets {
			if n == s {
				return true
			}
		}
		return false
	}
	if !has("hashmap-harris") || !has("hashmap-michael") {
		t.Errorf("SetNames lost the hashmaps: %v", sets)
	}
}
