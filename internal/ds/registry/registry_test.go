package registry_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/drive"
	"repro/internal/ds/dstest"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// TestEverySchemeConstructsEveryStructure: construction must succeed for
// every (scheme, structure) pair — even the non-applicable ones, whose
// failure mode is unsafe behaviour at runtime (exercised by the adversary
// executions), never a constructor error.
func TestEverySchemeConstructsEveryStructure(t *testing.T) {
	for _, structure := range registry.Names() {
		info, err := registry.Get(structure)
		if err != nil {
			t.Fatal(err)
		}
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

// TestRegistrySmoke: every structure passes a short single-threaded script
// under every applicable safe scheme.
func TestRegistrySmoke(t *testing.T) {
	for _, structure := range registry.Names() {
		info, err := registry.Get(structure)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range dstest.SchemesFor(structure) {
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				env := dstest.NewEnv(t, scheme, 1, 1<<12, info.PayloadWords, mem.Reuse)
				target, err := drive.NewTarget(structure, env.S)
				if err != nil {
					t.Fatal(err)
				}
				s := drive.Script{Threads: 1, Ops: 50, Rounds: 12}
				if info.Kind == registry.KindSet {
					s = drive.Script{Threads: 1, Ops: 600, KeyRange: 32, Disjoint: true}
				}
				dstest.Check(t, env, target, s)
			})
		}
	}
}

// TestInfoConsistency: every Info carries exactly the factory its Kind
// promises, a payload size an arena can host, and a name matching its key.
func TestInfoConsistency(t *testing.T) {
	for _, name := range registry.Names() {
		info, err := registry.Get(name)
		if err != nil {
			t.Fatal(err)
		}
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
		info, err := registry.Get(name)
		if err != nil {
			t.Fatal(err)
		}
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
}

// renamed is a registered scheme under another name: applicability must
// follow its Props, not its name.
type renamed struct{ smr.Scheme }

func (renamed) Name() string { return "myhp" }

// TestApplicabilityClassification pins the paper's Appendix E analysis,
// driven by each scheme's declared Props: per-pointer protection schemes
// (hp, ibr, he — the ones declaring smr.Restricted) are not applicable to
// structures whose searches traverse retired nodes, and every other scheme
// is applicable everywhere.
func TestApplicabilityClassification(t *testing.T) {
	restricted := map[string]bool{"hp": true, "ibr": true, "he": true}
	for _, scheme := range all.Names() {
		p, err := all.Props(scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, structure := range registry.Names() {
			info, err := registry.Get(structure)
			if err != nil {
				t.Fatal(err)
			}
			want := !restricted[scheme] || !info.TraversesRetired
			if got := registry.Applicable(p, info); got != want {
				t.Errorf("%s × %s: applicable = %v, want %v", scheme, structure, got, want)
			}
		}
	}
	hpf, err := all.Get("hp")
	if err != nil {
		t.Fatal(err)
	}
	s := all.Probe(func(a *mem.Arena, n, threshold int) smr.Scheme { return renamed{hpf(a, n, threshold)} })
	if s.Name() != "myhp" || s.Props() != all.Probe(hpf).Props() {
		t.Fatalf("renamed probe = %s %+v", s.Name(), s.Props())
	}
	for structure, want := range map[string]bool{"harris": false, "skiplist": false, "michael": true} {
		info, err := registry.Get(structure)
		if err != nil {
			t.Fatal(err)
		}
		if got := registry.Applicable(s.Props(), info); got != want {
			t.Errorf("hp's Props under the name %s × %s: applicable = %v, want %v", s.Name(), structure, got, want)
		}
	}
}

// TestSchemesForPinned pins every structure's suite sweep: the schemes
// dstest.SchemesFor returns are the cells each structure's tests run.
func TestSchemesForPinned(t *testing.T) {
	every := []string{"ebr", "he", "hp", "ibr", "nbr", "none", "pebr", "qsbr", "rc", "vbr"}
	traversal := []string{"ebr", "nbr", "none", "pebr", "qsbr", "rc", "vbr"}
	want := map[string][]string{
		"harris": traversal, "hashmap-harris": traversal, "nmtree": traversal, "skiplist": traversal,
		"hashmap-michael": every, "michael": every, "msqueue": every, "treiber": every,
	}
	if len(want) != len(registry.Names()) {
		t.Fatalf("table covers %d structures, registry has %v", len(want), registry.Names())
	}
	for structure, schemes := range want {
		if got := dstest.SchemesFor(structure); !reflect.DeepEqual(got, schemes) {
			t.Errorf("SchemesFor(%s) = %v, want %v", structure, got, schemes)
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
