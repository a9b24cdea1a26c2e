// Package registry enumerates the repository's data-structure
// implementations behind by-name factories, so the applicability harness,
// the benchmarks and the tests can sweep scheme × structure uniformly.
//
// Which schemes a structure admits is derived from the schemes' declared
// claims, never from their names: Applicable reads a scheme's
// smr.Props.Applicability against the structure's TraversesRetired.
package registry

import (
	"fmt"
	"sort"

	"repro/internal/ds"
	"repro/internal/ds/harris"
	"repro/internal/ds/hashmap"
	"repro/internal/ds/michael"
	"repro/internal/ds/msqueue"
	"repro/internal/ds/nmtree"
	"repro/internal/ds/skiplist"
	"repro/internal/ds/treiber"
	"repro/internal/smr"
)

// Kind is the abstract data type a structure implements.
type Kind uint8

// Structure kinds.
const (
	KindSet Kind = iota
	KindQueue
	KindStack
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindQueue:
		return "queue"
	case KindStack:
		return "stack"
	}
	return "set"
}

// MaxPayloadWords is the largest payload-word requirement across all
// structures; arenas sized with it can host any structure.
const MaxPayloadWords = skiplist.PayloadWords

// Info describes one registered structure implementation.
type Info struct {
	// Name is the registry key ("harris", "msqueue", ...).
	Name string
	// Kind is the abstract data type.
	Kind Kind
	// PayloadWords is the minimum arena payload size the structure needs.
	PayloadWords int
	// TraversesRetired reports that searches may traverse logically
	// deleted (and possibly retired) nodes — the property that defeats
	// per-pointer protection schemes (Appendix E of the paper).
	TraversesRetired bool
	// Partitioned reports that searches visit only a hash partition of
	// the key space (the hashmaps): scripted adversaries that assume one
	// key lies on another key's search path cannot target such a
	// structure, so structure sweeps built on those scripts skip it.
	Partitioned bool
	// NewSet/NewQueue/NewStack is non-nil per Kind.
	NewSet   func(s smr.Scheme, opt ds.Options) (ds.Set, error)
	NewQueue func(s smr.Scheme, opt ds.Options) (ds.Queue, error)
	NewStack func(s smr.Scheme, opt ds.Options) (ds.Stack, error)
}

var infos = map[string]Info{
	"harris": {
		Name: "harris", Kind: KindSet, PayloadWords: 2, TraversesRetired: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return harris.New(s, opt) },
	},
	"michael": {
		Name: "michael", Kind: KindSet, PayloadWords: 2,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return michael.New(s, opt) },
	},
	"skiplist": {
		Name: "skiplist", Kind: KindSet, PayloadWords: skiplist.PayloadWords, TraversesRetired: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return skiplist.New(s, opt) },
	},
	"hashmap-harris": {
		Name: "hashmap-harris", Kind: KindSet, PayloadWords: 2, TraversesRetired: true, Partitioned: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return hashmap.New(s, opt, 16, "harris") },
	},
	"hashmap-michael": {
		Name: "hashmap-michael", Kind: KindSet, PayloadWords: 2, Partitioned: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return hashmap.New(s, opt, 16, "michael") },
	},
	"nmtree": {
		Name: "nmtree", Kind: KindSet, PayloadWords: nmtree.PayloadWords, TraversesRetired: true,
		NewSet: func(s smr.Scheme, opt ds.Options) (ds.Set, error) { return nmtree.New(s, opt) },
	},
	"msqueue": {
		Name: "msqueue", Kind: KindQueue, PayloadWords: 2,
		NewQueue: func(s smr.Scheme, opt ds.Options) (ds.Queue, error) { return msqueue.New(s, opt) },
	},
	"treiber": {
		Name: "treiber", Kind: KindStack, PayloadWords: 2,
		NewStack: func(s smr.Scheme, opt ds.Options) (ds.Stack, error) { return treiber.New(s, opt) },
	},
}

// aliases maps convenience names to registry entries. "hashmap" selects
// the HP-compatible variant so the widest scheme set applies.
var aliases = map[string]string{
	"hashmap": "hashmap-michael",
}

// Names returns every registered structure name, sorted.
func Names() []string {
	names := make([]string, 0, len(infos))
	for n := range infos {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetNames returns the names of the set structures, sorted.
func SetNames() []string {
	var names []string
	for _, n := range Names() {
		if infos[n].Kind == KindSet {
			names = append(names, n)
		}
	}
	return names
}

// TraversalSetNames returns, sorted, the set structures whose searches
// traverse the full key order (not hash-partitioned) and may cross
// retired nodes — the structures the paper's §6 discussion asks about,
// and the ones the scripted stall adversaries can target. Experiment
// sweeps iterate this listing instead of hand-maintained slices so their
// report ordering is stable and new structures join automatically.
func TraversalSetNames() []string {
	var names []string
	for _, n := range SetNames() {
		if in := infos[n]; in.TraversesRetired && !in.Partitioned {
			names = append(names, n)
		}
	}
	return names
}

// Get returns the named structure's Info. Aliases resolve to their
// target entry (the returned Info carries the canonical name).
func Get(name string) (Info, error) {
	if target, ok := aliases[name]; ok {
		name = target
	}
	in, ok := infos[name]
	if !ok {
		return Info{}, fmt.Errorf("registry: unknown structure %q (have %v)", name, Names())
	}
	return in, nil
}

// Applicable reports whether a scheme with property sheet p is applicable
// to structure in, per the paper's analysis: a scheme that declares
// smr.Restricted (the per-pointer protection schemes HP, IBR and HE) is
// not applicable to a structure whose searches traverse retired nodes
// (Appendix E); everything else is.
func Applicable(p smr.Props, in Info) bool {
	return !in.TraversesRetired || p.Applicability != smr.Restricted
}

// Red is a cell Applicable admits that the randomized concurrent checks
// have seen failing: the structure suites' multi-threaded scripts and the
// applicability check log and skip its failures (one-thread scripts still
// fail), and eramatrix prints it. Structure "*" stands for every
// structure.
type Red struct{ Scheme, Structure, Symptom, Since string }

// KnownRed lists the red cells, each with the symptom it was seen with.
// A failure of a cell not listed here fails its test. The pebr and vbr rows
// are "*" because 300 runs of the applicability check and the churn suites
// saw every one of the eight structures red under each.
var KnownRed = []Red{
	{"nbr", "nmtree", "UNSAFE: stale uses (1-2) in the applicability stress", "2026-10-16"},
	{"nbr", "skiplist", "UNSAFE: stale uses in the applicability stress", "2026-10-16"},
	{"rc", "skiplist", "UNSAFE: stale uses and a life-cycle violation after the applicability stress", "2026-10-16"},
	{"pebr", "*", "post-swap CAS undo: queues and stacks corrupted, stale uses and " +
		"life-cycle violations in the applicability stress, churn model mismatches, " +
		"skiplist churn step-budget trips", "2026-10-16"},
	{"vbr", "*", "post-swap CAS undo: queues, stacks and skiplist corrupted, stale uses " +
		"in the applicability stress, churn model mismatches and step-budget trips", "2026-10-16"},
}

// IsKnownRed returns the KnownRed entry covering the cell.
func IsKnownRed(scheme, structure string) (Red, bool) {
	for _, r := range KnownRed {
		if r.Scheme == scheme && (r.Structure == structure || r.Structure == "*") {
			return r, true
		}
	}
	return Red{}, false
}
