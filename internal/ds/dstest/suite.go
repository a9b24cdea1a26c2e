package dstest

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// SchemesFor returns every safe scheme applicable to structure per the
// paper's classification (the non-applicable pairs are exercised by the
// deterministic adversary tests instead).
func SchemesFor(structure string) []string {
	var names []string
	for _, s := range all.SafeNames() {
		if registry.Applicable(s, structure) {
			names = append(names, s)
		}
	}
	return names
}

// suiteEnv builds an env and structure instance for one subtest.
func suiteEnv(t *testing.T, scheme, structure string, n int) (*Env, registry.Info) {
	t.Helper()
	info := registry.MustGet(structure)
	env := NewEnv(t, scheme, n, 1<<16, info.PayloadWords, mem.Reuse)
	return env, info
}

// RunSetSuite runs the full conformance suite for a set structure across
// every applicable scheme.
func RunSetSuite(t *testing.T, structure string) {
	for _, scheme := range SchemesFor(structure) {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Run("sequential", func(t *testing.T) {
				env, info := suiteEnv(t, scheme, structure, 1)
				set, err := info.NewSet(env.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				SequentialSet(t, set, 64, 4000)
				env.AssertSafe(t)
			})
			t.Run("linearizable", func(t *testing.T) {
				env, info := suiteEnv(t, scheme, structure, 4)
				set, err := info.NewSet(env.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ConcurrentSet(t, env, set, 10, 3, 8)
				env.AssertSafe(t)
			})
			t.Run("churn", func(t *testing.T) {
				env, info := suiteEnv(t, scheme, structure, 4)
				set, err := info.NewSet(env.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				DisjointChurnSet(t, env, set, 2500, 48)
				env.AssertSafe(t)
			})
			t.Run("batch", func(t *testing.T) {
				envA, info := suiteEnv(t, scheme, structure, 1)
				a, err := info.NewSet(envA.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				envB, _ := suiteEnv(t, scheme, structure, 1)
				b, err := info.NewSet(envB.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				// 700-op batches overrun the K=512 fused window, so the
				// mid-window re-bracket cadence runs under every scheme.
				BatchEquivalenceSet(t, a, b, 6, 700, 96, true)
				envA.AssertSafe(t)
				envB.AssertSafe(t)
			})
			t.Run("batch-concurrent", func(t *testing.T) {
				env, info := suiteEnv(t, scheme, structure, 4)
				set, err := info.NewSet(env.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ConcurrentBatchSet(t, env, set, 6, 600, 48)
				env.AssertSafe(t)
			})
			t.Run("iterate", func(t *testing.T) {
				env, info := suiteEnv(t, scheme, structure, 4)
				newSet := func(s smr.Scheme) (ds.Set, error) { return info.NewSet(s, ds.Options{}) }
				IterateSet(t, env, newSet, 1000, !info.Partitioned)
				env.AssertSafe(t)
			})
		})
	}
}

// RunQueueSuite runs the full conformance suite for a queue structure.
func RunQueueSuite(t *testing.T, structure string) {
	for _, scheme := range SchemesFor(structure) {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Run("sequential", func(t *testing.T) {
				env, info := suiteEnv(t, scheme, structure, 1)
				q, err := info.NewQueue(env.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				SequentialQueue(t, q, 4000)
				env.AssertSafe(t)
			})
			t.Run("linearizable", func(t *testing.T) {
				env, info := suiteEnv(t, scheme, structure, 4)
				q, err := info.NewQueue(env.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ConcurrentQueue(t, env, q, 10, 3)
				env.AssertSafe(t)
			})
		})
	}
}

// RunStackSuite runs the full conformance suite for a stack structure.
func RunStackSuite(t *testing.T, structure string) {
	for _, scheme := range SchemesFor(structure) {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Run("sequential", func(t *testing.T) {
				env, info := suiteEnv(t, scheme, structure, 1)
				st, err := info.NewStack(env.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				SequentialStack(t, st, 4000)
				env.AssertSafe(t)
			})
			t.Run("linearizable", func(t *testing.T) {
				env, info := suiteEnv(t, scheme, structure, 4)
				st, err := info.NewStack(env.S, ds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ConcurrentStack(t, env, st, 10, 3)
				env.AssertSafe(t)
			})
		})
	}
}
