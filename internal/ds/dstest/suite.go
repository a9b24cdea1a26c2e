package dstest

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/drive"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// SchemesFor returns every safe scheme whose Props make it applicable to
// structure (registry.Applicable; the non-applicable pairs are exercised
// by the deterministic adversary tests instead). An unknown structure
// admits every scheme, and each test's build then fails on the name.
func SchemesFor(structure string) []string {
	info, _ := registry.Get(structure)
	var names []string
	for _, s := range all.SafeNames() {
		if p, _ := all.Props(s); registry.Applicable(p, info) {
			names = append(names, s)
		}
	}
	return names
}

// bagLinearizable is the queue and stack suites' concurrent script.
var bagLinearizable = drive.Script{Threads: 4, Ops: 3, Rounds: 10}

// RunSuite runs the full conformance suite for the named registry
// structure, a set, a queue or a stack, across every applicable scheme.
func RunSuite(t *testing.T, structure string) {
	info, err := registry.Get(structure)
	if err != nil {
		t.Fatal(err)
	}
	build := func(t *testing.T, scheme string, n int) (*Env, drive.Target) {
		env := NewEnv(t, scheme, n, 1<<16, info.PayloadWords, mem.Reuse)
		target, err := drive.NewTarget(structure, env.S)
		if err != nil {
			t.Fatal(err)
		}
		return env, target
	}
	for _, scheme := range SchemesFor(structure) {
		t.Run(scheme, func(t *testing.T) {
			check := func(name string, s drive.Script) {
				t.Run(name, func(t *testing.T) {
					env, target := build(t, scheme, s.Threads)
					Check(t, env, target, s)
				})
			}
			// A sequential script is one thread checked against its model
			// (sets) or its recorded history (queues and stacks, whose
			// windows stay within hist.MaxCheckOps).
			if info.Kind != registry.KindSet {
				check("sequential", drive.Script{Threads: 1, Ops: 50, Rounds: 80})
				check("linearizable", bagLinearizable)
				return
			}
			check("sequential", drive.Script{Threads: 1, Ops: 4000, KeyRange: 64, Disjoint: true})
			check("linearizable", drive.Script{Threads: 4, Ops: 3, Rounds: 10, KeyRange: 8})
			check("churn", drive.Script{Threads: 4, Ops: 2500, KeyRange: 48, Disjoint: true})
			t.Run("batch", func(t *testing.T) {
				envA, a := build(t, scheme, 1)
				envB, b := build(t, scheme, 1)
				// 700-op batches overrun the K=512 fused window, so the
				// mid-window re-bracket cadence runs under every scheme.
				BatchEquivalenceSet(t, a.(ds.Set), b.(ds.Set), 6, 700, 96, true)
				envA.AssertSafe(t)
				envB.AssertSafe(t)
			})
			// 600-op batches from four threads at once: windows interleave
			// on one structure and one SMR domain.
			check("batch-concurrent", drive.Script{Threads: 4, Ops: 3600, KeyRange: 48, Batch: 600, Disjoint: true})
			t.Run("iterate", func(t *testing.T) {
				env := NewEnv(t, scheme, 4, 1<<16, info.PayloadWords, mem.Reuse)
				IterateSet(t, env, func(s smr.Scheme) (ds.Set, error) { return info.NewSet(s, ds.Options{}) }, 1000, !info.Partitioned)
				env.AssertSafe(t)
			})
		})
	}
}
