// Package all registers every reclamation scheme in the repository behind
// a by-name factory, so harnesses, benchmarks and command-line tools can
// enumerate schemes uniformly.
package all

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/ebr"
	"repro/internal/smr/he"
	"repro/internal/smr/hp"
	"repro/internal/smr/ibr"
	"repro/internal/smr/nbr"
	"repro/internal/smr/none"
	"repro/internal/smr/pebr"
	"repro/internal/smr/qsbr"
	"repro/internal/smr/rc"
	"repro/internal/smr/unsafefree"
	"repro/internal/smr/vbr"
)

// Factory builds a scheme instance over an arena for n threads; threshold
// <= 0 selects the scheme's default retire-list scan threshold.
type Factory func(a *mem.Arena, n, threshold int) smr.Scheme

var factories = map[string]Factory{
	"ebr":        func(a *mem.Arena, n, t int) smr.Scheme { return ebr.New(a, n, t) },
	"qsbr":       func(a *mem.Arena, n, t int) smr.Scheme { return qsbr.New(a, n, t) },
	"hp":         func(a *mem.Arena, n, t int) smr.Scheme { return hp.New(a, n, t) },
	"ibr":        func(a *mem.Arena, n, t int) smr.Scheme { return ibr.New(a, n, t) },
	"he":         func(a *mem.Arena, n, t int) smr.Scheme { return he.New(a, n, t) },
	"vbr":        func(a *mem.Arena, n, t int) smr.Scheme { return vbr.New(a, n, t) },
	"nbr":        func(a *mem.Arena, n, t int) smr.Scheme { return nbr.New(a, n, t) },
	"rc":         func(a *mem.Arena, n, t int) smr.Scheme { return rc.New(a, n, t) },
	"none":       func(a *mem.Arena, n, t int) smr.Scheme { return none.New(a, n, t) },
	"pebr":       func(a *mem.Arena, n, t int) smr.Scheme { return pebr.New(a, n, t) },
	"unsafefree": func(a *mem.Arena, n, t int) smr.Scheme { return unsafefree.New(a, n, t) },
}

// Names returns every registered scheme name, sorted.
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SafeNames returns every scheme that claims to be an SMR: every one whose
// Props do not declare smr.Unsafe (the failure-injection baseline does).
func SafeNames() []string {
	return slices.DeleteFunc(Names(), func(n string) bool {
		return Probe(factories[n]).Props().Applicability == smr.Unsafe
	})
}

// Get returns the named scheme's factory.
func Get(name string) (Factory, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("smr: unknown scheme %q (have %v)", name, Names())
	}
	return f, nil
}

// New builds the named scheme.
func New(name string, a *mem.Arena, n, threshold int) (smr.Scheme, error) {
	f, err := Get(name)
	if err != nil {
		return nil, err
	}
	return f(a, n, threshold), nil
}

// Probe builds the scheme f makes over a one-slot throwaway arena, for its
// name and property sheet before (or without) the real arena, whose shape
// may depend on them.
func Probe(f Factory) smr.Scheme {
	return f(mem.NewArena(mem.Config{Slots: 1, PayloadWords: 1, MetaWords: smr.MetaWords, Threads: 1}), 1, 0)
}

// Props returns the named scheme's static property sheet without binding
// it to a real heap.
func Props(name string) (smr.Props, error) {
	f, err := Get(name)
	if err != nil {
		return smr.Props{}, err
	}
	return Probe(f).Props(), nil
}
